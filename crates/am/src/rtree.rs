//! R-tree specialization (\[Gut84\]): 2-D rectangles with minimum bounding
//! rectangles as bounding predicates, overlap/containment queries, and
//! Guttman's quadratic pick-split.

use gist_core::ext::{GistExtension, SplitDecision};

/// An axis-aligned rectangle (`lo ≤ hi` on both axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Min x.
    pub x1: f64,
    /// Min y.
    pub y1: f64,
    /// Max x.
    pub x2: f64,
    /// Max y.
    pub y2: f64,
}

impl Rect {
    /// Construct (normalizes coordinate order).
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Rect { x1: x1.min(x2), y1: y1.min(y2), x2: x1.max(x2), y2: y1.max(y2) }
    }

    /// A point rectangle.
    pub fn point(x: f64, y: f64) -> Self {
        Rect { x1: x, y1: y, x2: x, y2: y }
    }

    /// Area.
    pub fn area(&self) -> f64 {
        (self.x2 - self.x1) * (self.y2 - self.y1)
    }

    /// Whether two rectangles overlap (closed edges).
    #[inline]
    pub fn overlaps(&self, o: &Rect) -> bool {
        self.x1 <= o.x2 && o.x1 <= self.x2 && self.y1 <= o.y2 && o.y1 <= self.y2
    }

    /// Whether `self` contains `o`.
    #[inline]
    pub fn contains(&self, o: &Rect) -> bool {
        self.x1 <= o.x1 && o.x2 <= self.x2 && self.y1 <= o.y1 && o.y2 <= self.y2
    }

    /// Minimum bounding rectangle of both.
    pub fn union(&self, o: &Rect) -> Rect {
        Rect {
            x1: self.x1.min(o.x1),
            y1: self.y1.min(o.y1),
            x2: self.x2.max(o.x2),
            y2: self.y2.max(o.y2),
        }
    }

    /// Center point.
    pub fn center(&self) -> (f64, f64) {
        ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)
    }

    /// Size measure used by penalty and pick-split: area plus the half
    /// perimeter. The margin term keeps the heuristics meaningful for
    /// degenerate (zero-area) rectangles such as points and segments —
    /// the same reason the R*-tree mixes margin into its split criteria.
    pub fn measure(&self) -> f64 {
        self.area() + (self.x2 - self.x1) + (self.y2 - self.y1)
    }
}

/// Spatial query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialQuery {
    /// All keys overlapping the window.
    Overlaps(Rect),
    /// All keys fully inside the window.
    Within(Rect),
    /// Exact-rectangle equality (the `eq_query` form).
    Equals(Rect),
}

impl SpatialQuery {
    #[inline]
    fn window(&self) -> &Rect {
        match self {
            SpatialQuery::Overlaps(r) | SpatialQuery::Within(r) | SpatialQuery::Equals(r) => r,
        }
    }
}

/// The R-tree extension.
#[derive(Debug, Clone, Copy, Default)]
pub struct RtreeExt;

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_f64(b: &[u8], off: usize) -> f64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[off..off + 8]);
    f64::from_le_bytes(v)
}

fn encode_rect(r: &Rect, out: &mut Vec<u8>) {
    put_f64(out, r.x1);
    put_f64(out, r.y1);
    put_f64(out, r.x2);
    put_f64(out, r.y2);
}

#[inline]
fn decode_rect(b: &[u8], off: usize) -> Rect {
    Rect {
        x1: get_f64(b, off),
        y1: get_f64(b, off + 8),
        x2: get_f64(b, off + 16),
        y2: get_f64(b, off + 24),
    }
}

impl GistExtension for RtreeExt {
    type Key = Rect;
    type Pred = Rect;
    type Query = SpatialQuery;

    fn encode_key(&self, key: &Rect, out: &mut Vec<u8>) {
        encode_rect(key, out);
    }

    #[inline]
    fn decode_key(&self, bytes: &[u8]) -> Rect {
        decode_rect(bytes, 0)
    }

    fn encode_pred(&self, pred: &Rect, out: &mut Vec<u8>) {
        encode_rect(pred, out);
    }

    #[inline]
    fn decode_pred(&self, bytes: &[u8]) -> Rect {
        decode_rect(bytes, 0)
    }

    fn encode_query(&self, q: &SpatialQuery, out: &mut Vec<u8>) {
        out.push(match q {
            SpatialQuery::Overlaps(_) => 0,
            SpatialQuery::Within(_) => 1,
            SpatialQuery::Equals(_) => 2,
        });
        encode_rect(q.window(), out);
    }

    fn decode_query(&self, bytes: &[u8]) -> SpatialQuery {
        let r = decode_rect(bytes, 1);
        match bytes[0] {
            0 => SpatialQuery::Overlaps(r),
            1 => SpatialQuery::Within(r),
            2 => SpatialQuery::Equals(r),
            t => panic!("bad spatial query tag {t}"),
        }
    }

    #[inline]
    fn consistent_pred(&self, pred: &Rect, q: &SpatialQuery) -> bool {
        // A subtree can contain a qualifying key iff its MBR overlaps
        // the window (for all three query forms).
        pred.overlaps(q.window())
    }

    #[inline]
    fn consistent_key(&self, key: &Rect, q: &SpatialQuery) -> bool {
        match q {
            SpatialQuery::Overlaps(w) => key.overlaps(w),
            SpatialQuery::Within(w) => w.contains(key),
            SpatialQuery::Equals(w) => key == w,
        }
    }

    fn key_equal(&self, a: &Rect, b: &Rect) -> bool {
        a == b
    }

    fn eq_query(&self, key: &Rect) -> SpatialQuery {
        SpatialQuery::Equals(*key)
    }

    fn key_pred(&self, key: &Rect) -> Rect {
        *key
    }

    fn union_preds(&self, a: &Rect, b: &Rect) -> Rect {
        a.union(b)
    }

    fn pred_covers(&self, outer: &Rect, inner: &Rect) -> bool {
        outer.contains(inner)
    }

    fn penalty(&self, pred: &Rect, key: &Rect) -> f64 {
        // Guttman: enlargement of the MBR (area + margin so that point
        // data still differentiates candidates).
        pred.union(key).measure() - pred.measure()
    }

    fn pick_split(&self, preds: &[Rect]) -> SplitDecision {
        // Guttman's quadratic split: pick the pair wasting the most area
        // as seeds, then assign each remaining entry to the side whose
        // MBR grows least (ties: smaller area), keeping both sides
        // minimally filled.
        let n = preds.len();
        assert!(n >= 2);
        let (mut s1, mut s2, mut worst) = (0, 1, f64::MIN);
        for i in 0..n {
            for j in i + 1..n {
                let waste =
                    preds[i].union(&preds[j]).measure() - preds[i].measure() - preds[j].measure();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }
        let min_fill = (n / 3).max(1);
        let mut left = vec![s1];
        let mut right = vec![s2];
        let mut lbox = preds[s1];
        let mut rbox = preds[s2];
        for (i, p) in preds.iter().enumerate() {
            if i == s1 || i == s2 {
                continue;
            }
            let remaining = n - left.len() - right.len() - 1;
            // Force-assign to keep minimum fill reachable.
            if left.len() + remaining < min_fill {
                lbox = lbox.union(p);
                left.push(i);
                continue;
            }
            if right.len() + remaining < min_fill {
                rbox = rbox.union(p);
                right.push(i);
                continue;
            }
            let dl = lbox.union(p).measure() - lbox.measure();
            let dr = rbox.union(p).measure() - rbox.measure();
            let go_left = match dl.partial_cmp(&dr) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => lbox.measure() <= rbox.measure(),
            };
            if go_left {
                lbox = lbox.union(p);
                left.push(i);
            } else {
                rbox = rbox.union(p);
                right.push(i);
            }
        }
        SplitDecision { left, right }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_geometry() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert!(a.overlaps(&b));
        assert!(!a.contains(&b));
        let u = a.union(&b);
        assert!(u.contains(&a) && u.contains(&b));
        assert_eq!(u.area(), 9.0);
        assert_eq!(Rect::new(3.0, 3.0, 1.0, 1.0), Rect::new(1.0, 1.0, 3.0, 3.0));
    }

    #[test]
    fn codec_roundtrips() {
        let e = RtreeExt;
        let r = Rect::new(-1.5, 2.25, 3.0, 4.0);
        let mut b = Vec::new();
        e.encode_key(&r, &mut b);
        assert_eq!(e.decode_key(&b), r);
        for q in [SpatialQuery::Overlaps(r), SpatialQuery::Within(r), SpatialQuery::Equals(r)] {
            let mut b = Vec::new();
            e.encode_query(&q, &mut b);
            assert_eq!(e.decode_query(&b), q);
        }
    }

    #[test]
    fn query_semantics() {
        let e = RtreeExt;
        let key = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!(e.consistent_key(&key, &SpatialQuery::Overlaps(Rect::new(0.0, 0.0, 1.5, 1.5))));
        assert!(!e.consistent_key(&key, &SpatialQuery::Within(Rect::new(0.0, 0.0, 1.5, 1.5))));
        assert!(e.consistent_key(&key, &SpatialQuery::Within(Rect::new(0.0, 0.0, 3.0, 3.0))));
        assert!(e.consistent_key(&key, &e.eq_query(&key)));
        assert!(!e.consistent_key(&key, &e.eq_query(&Rect::new(1.0, 1.0, 2.0, 2.1))));
    }

    #[test]
    fn penalty_prefers_containing_box() {
        let e = RtreeExt;
        let small = Rect::new(0.0, 0.0, 1.0, 1.0);
        let big = Rect::new(0.0, 0.0, 10.0, 10.0);
        let key = Rect::point(0.5, 0.5);
        assert_eq!(e.penalty(&small, &key), 0.0);
        assert_eq!(e.penalty(&big, &key), 0.0);
        let far = Rect::point(20.0, 20.0);
        assert!(e.penalty(&small, &far) > e.penalty(&big, &far) * 0.0);
        assert!(e.penalty(&small, &far) > 0.0);
    }

    #[test]
    fn quadratic_split_partitions_and_fills() {
        let e = RtreeExt;
        // Two clusters far apart.
        let mut preds = Vec::new();
        for i in 0..6 {
            preds.push(Rect::point(i as f64 * 0.1, 0.0));
            preds.push(Rect::point(100.0 + i as f64 * 0.1, 0.0));
        }
        let d = e.pick_split(&preds);
        assert_eq!(d.left.len() + d.right.len(), preds.len());
        assert!(!d.left.is_empty() && !d.right.is_empty());
        // Clusters end up separated.
        let left_far = d.left.iter().filter(|&&i| preds[i].x1 >= 50.0).count();
        let right_far = d.right.iter().filter(|&&i| preds[i].x1 >= 50.0).count();
        assert!(left_far == 0 || right_far == 0, "clusters not mixed");
    }
}
