//! Character frames: the pure render target of the dashboard.
//!
//! A [`Frame`] is a `w × h` grid of styled characters. The dashboard
//! renderer is a pure function `&DashState -> Frame`; everything
//! terminal-specific (ANSI escapes, cursor movement, double-buffered
//! diffing) lives in the frame's *output* methods, so CI can exercise the
//! renderer headlessly — [`to_text`](Frame::to_text) gives the plain-text
//! projection a test greps — while the live loop paints only the cells
//! that changed since the previous frame ([`diff_ansi`](Frame::diff_ansi)).

/// Display style of one frame cell, mapped to one SGR attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Style {
    /// Default terminal attributes.
    #[default]
    Plain,
    /// Faint: chrome, pending cells, separators.
    Dim,
    /// Bold: headings and emphasized values.
    Bold,
    /// Green: completed cells, healthy gauges.
    Green,
    /// Yellow: running cells, in-flight accounting.
    Yellow,
    /// Red: failed cells, drops, refusals.
    Red,
    /// Cyan: identities (cell keys, digests, hosts).
    Cyan,
    /// Reverse video: the title bar and the selection cursor.
    Inverse,
}

impl Style {
    /// The SGR parameter string selecting this style.
    fn sgr(self) -> &'static str {
        match self {
            Style::Plain => "0",
            Style::Dim => "0;2",
            Style::Bold => "0;1",
            Style::Green => "0;32",
            Style::Yellow => "0;33",
            Style::Red => "0;31",
            Style::Cyan => "0;36",
            Style::Inverse => "0;7",
        }
    }
}

/// One styled character of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The character shown at this position.
    pub ch: char,
    /// Its display style.
    pub style: Style,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            ch: ' ',
            style: Style::Plain,
        }
    }
}

/// A rectangular region of a frame, in cell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left column.
    pub x: usize,
    /// Top row.
    pub y: usize,
    /// Width in cells.
    pub w: usize,
    /// Height in cells.
    pub h: usize,
}

impl Rect {
    /// The region inside this one's 1-cell border (empty when too small).
    pub fn inner(self) -> Rect {
        Rect {
            x: self.x + 1,
            y: self.y + 1,
            w: self.w.saturating_sub(2),
            h: self.h.saturating_sub(2),
        }
    }
}

/// A `w × h` grid of styled characters: the pure render target.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    w: usize,
    h: usize,
    cells: Vec<Cell>,
}

impl Frame {
    /// A blank frame of the given size.
    pub fn new(w: usize, h: usize) -> Self {
        Frame {
            w,
            h,
            cells: vec![Cell::default(); w * h],
        }
    }

    /// Width in cells.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Height in cells.
    pub fn height(&self) -> usize {
        self.h
    }

    /// The cell at `(x, y)`; out-of-bounds reads are blank (writes are
    /// clipped, so a renderer never panics on a small terminal).
    pub fn get(&self, x: usize, y: usize) -> Cell {
        if x < self.w && y < self.h {
            self.cells[y * self.w + x]
        } else {
            Cell::default()
        }
    }

    /// Sets one cell; silently clipped outside the frame.
    pub fn put(&mut self, x: usize, y: usize, ch: char, style: Style) {
        if x < self.w && y < self.h {
            self.cells[y * self.w + x] = Cell { ch, style };
        }
    }

    /// Writes `text` starting at `(x, y)`, clipped to the frame's right
    /// edge. Returns the column after the last written character.
    pub fn text(&mut self, x: usize, y: usize, text: &str, style: Style) -> usize {
        let mut col = x;
        for ch in text.chars() {
            if col >= self.w {
                break;
            }
            self.put(col, y, ch, style);
            col += 1;
        }
        col
    }

    /// Fills a horizontal run of `len` cells with `ch`.
    pub fn hfill(&mut self, x: usize, y: usize, len: usize, ch: char, style: Style) {
        for i in 0..len {
            self.put(x + i, y, ch, style);
        }
    }

    /// The plain-text projection (styles dropped, rows joined by `\n`,
    /// trailing spaces trimmed) — what headless mode prints and CI greps.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity((self.w + 1) * self.h);
        for y in 0..self.h {
            let row: String = (0..self.w).map(|x| self.get(x, y).ch).collect();
            out.push_str(row.trim_end());
            out.push('\n');
        }
        out
    }

    /// The full ANSI paint of this frame: home the cursor, then every
    /// row with minimal SGR switching. Used for the first frame and after
    /// a resize; steady-state repaints go through
    /// [`diff_ansi`](Self::diff_ansi).
    pub fn to_ansi(&self) -> String {
        let mut out = String::with_capacity(self.w * self.h * 2);
        let mut style = None;
        for y in 0..self.h {
            out.push_str(&format!("\x1b[{};1H", y + 1));
            for x in 0..self.w {
                let c = self.get(x, y);
                if style != Some(c.style) {
                    out.push_str(&format!("\x1b[{}m", c.style.sgr()));
                    style = Some(c.style);
                }
                out.push(c.ch);
            }
        }
        out.push_str("\x1b[0m");
        out
    }

    /// The double-buffered diff: ANSI escapes repainting only the cells
    /// that differ from `prev`. Falls back to a full paint when the sizes
    /// differ (a resize invalidates every position).
    pub fn diff_ansi(&self, prev: &Frame) -> String {
        if self.w != prev.w || self.h != prev.h {
            return format!("\x1b[2J{}", self.to_ansi());
        }
        let mut out = String::new();
        let mut style = None;
        // (row, col) the terminal cursor would sit at after the last
        // emitted run, so adjacent changed cells need no cursor move.
        let mut cursor: Option<(usize, usize)> = None;
        for y in 0..self.h {
            for x in 0..self.w {
                let c = self.get(x, y);
                if c == prev.get(x, y) {
                    continue;
                }
                if cursor != Some((y, x)) {
                    out.push_str(&format!("\x1b[{};{}H", y + 1, x + 1));
                }
                if style != Some(c.style) {
                    out.push_str(&format!("\x1b[{}m", c.style.sgr()));
                    style = Some(c.style);
                }
                out.push(c.ch);
                cursor = Some((y, x + 1));
            }
        }
        if !out.is_empty() {
            out.push_str("\x1b[0m");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_clip_instead_of_panicking() {
        let mut f = Frame::new(4, 2);
        f.text(2, 0, "abcdef", Style::Bold);
        f.put(99, 99, 'x', Style::Red);
        assert_eq!(f.get(2, 0).ch, 'a');
        assert_eq!(f.get(3, 0).ch, 'b');
        assert_eq!(f.get(0, 1).ch, ' ');
        assert_eq!(f.to_text(), "  ab\n\n");
    }

    #[test]
    fn diff_is_empty_for_identical_frames_and_minimal_for_one_change() {
        let mut a = Frame::new(10, 3);
        a.text(0, 1, "hello", Style::Plain);
        let b = a.clone();
        assert!(b.diff_ansi(&a).is_empty(), "no change ⇒ no bytes");

        let mut c = a.clone();
        c.put(1, 1, 'a', Style::Plain);
        let d = c.diff_ansi(&a);
        assert!(d.contains("\x1b[2;2H"), "{d:?}");
        assert!(d.contains('a'));
        assert!(!d.contains("hello"), "unchanged cells must not repaint");
    }

    #[test]
    fn size_change_forces_full_repaint() {
        let a = Frame::new(4, 2);
        let b = Frame::new(5, 2);
        assert!(b.diff_ansi(&a).starts_with("\x1b[2J"));
    }
}
