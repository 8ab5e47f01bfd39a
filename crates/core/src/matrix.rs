//! The match matrix.
//!
//! A dense `|S_source| × |S_target|` array of merged match scores — the raw
//! output of `MATCH(S1, S2)` that the paper notes is, by itself, useless to a
//! decision maker ("neither the matcher's output (a match matrix) nor
//! existing visualizations of such a matrix gave our customer much insight",
//! §3.3). Downstream operators (selection, filters, partitioning,
//! summarization) turn it into consumable products.
//!
//! Scores are stored as `f32`: the paper's 1378×784 problem is ~10^6 cells
//! (4 MB), and a five-schema comprehensive-vocabulary effort holds many such
//! matrices.

use crate::confidence::Confidence;
use sm_schema::ElementId;

/// Dense score matrix for one binary match operation.
#[derive(Debug, Clone)]
pub struct MatchMatrix {
    rows: usize,
    cols: usize,
    scores: Vec<f32>,
}

impl MatchMatrix {
    /// A matrix of `rows × cols` neutral scores.
    pub fn new(rows: usize, cols: usize) -> Self {
        MatchMatrix {
            rows,
            cols,
            scores: vec![0.0; rows * cols],
        }
    }

    /// Number of source elements (rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target elements (columns).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of candidate pairs (the paper's "10^6 potential matches").
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True for a degenerate 0×N or N×0 matrix.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    #[inline]
    fn idx(&self, s: ElementId, t: ElementId) -> usize {
        debug_assert!(s.index() < self.rows && t.index() < self.cols);
        s.index() * self.cols + t.index()
    }

    /// Score of a pair.
    #[inline]
    pub fn get(&self, s: ElementId, t: ElementId) -> Confidence {
        Confidence::new(f64::from(self.scores[self.idx(s, t)]))
    }

    /// Set the score of a pair.
    #[inline]
    pub fn set(&mut self, s: ElementId, t: ElementId, c: Confidence) {
        let i = self.idx(s, t);
        self.scores[i] = c.value() as f32;
    }

    /// Mutable access to one row (used by the parallel engine).
    pub fn row_mut(&mut self, s: ElementId) -> &mut [f32] {
        let start = s.index() * self.cols;
        &mut self.scores[start..start + self.cols]
    }

    /// Split the matrix into per-row mutable chunks (parallel fill).
    pub fn rows_mut(&mut self) -> std::slice::ChunksMut<'_, f32> {
        self.scores.chunks_mut(self.cols.max(1))
    }

    /// The raw row-major score buffer (e.g. for byte-level comparisons).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.scores
    }

    /// Mutable raw row-major score buffer (parallel merge fills).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.scores
    }

    /// Iterate all `(source, target, score)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (ElementId, ElementId, Confidence)> + '_ {
        self.scores.iter().enumerate().map(move |(i, &v)| {
            (
                ElementId((i / self.cols) as u32),
                ElementId((i % self.cols) as u32),
                Confidence::new(f64::from(v)),
            )
        })
    }

    /// Iterate pairs whose score is at least `threshold`, in row-major
    /// order: exactly the cells of [`Self::iter`] whose read-back score
    /// `c` has `c.value() >= threshold.value()`.
    ///
    /// The scan walks each row in segments and skips a segment only when
    /// no cell in it can pass: for a positive threshold `th`, a passing
    /// cell's raw `f32` is at least `th` (NaN reads as 0, and clamping
    /// lowers only values above `LIMIT >= th`), hence at least `th as f32`
    /// (round-to-nearest leaves no `f32` between the two). That
    /// vectorizable prefilter is a superset of the exact predicate, which
    /// then runs on the surviving segments. At `th <= 0` NaN cells and
    /// clamped negatives can pass, so every cell takes the exact
    /// predicate.
    pub fn iter_above(
        &self,
        threshold: Confidence,
    ) -> impl Iterator<Item = (ElementId, ElementId, Confidence)> + '_ {
        const SEGMENT: usize = 64;
        let th = threshold.value();
        let prefilter = (th > 0.0).then_some(th as f32);
        let may_pass = move |segment: &[f32]| {
            prefilter.is_none_or(|f| segment.iter().fold(false, |any, &v| any | (v >= f)))
        };
        self.scores
            .chunks(self.cols.max(1))
            .enumerate()
            .flat_map(move |(r, row)| {
                row.chunks(SEGMENT)
                    .enumerate()
                    .filter(move |&(_, segment)| may_pass(segment))
                    .flat_map(move |(k, segment)| {
                        segment.iter().enumerate().filter_map(move |(j, &v)| {
                            let c = Confidence::new(f64::from(v));
                            (c.value() >= th).then(|| {
                                (ElementId(r as u32), ElementId((k * SEGMENT + j) as u32), c)
                            })
                        })
                    })
            })
    }

    /// The best-scoring target for a source row, with its score.
    pub fn best_for_source(&self, s: ElementId) -> Option<(ElementId, Confidence)> {
        if self.cols == 0 {
            return None;
        }
        let start = s.index() * self.cols;
        let row = &self.scores[start..start + self.cols];
        let (j, &v) = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))?;
        Some((ElementId(j as u32), Confidence::new(f64::from(v))))
    }

    /// The best-scoring source for a target column, with its score.
    pub fn best_for_target(&self, t: ElementId) -> Option<(ElementId, Confidence)> {
        if self.rows == 0 || self.cols == 0 {
            return None;
        }
        let mut best: Option<(usize, f32)> = None;
        for i in 0..self.rows {
            let v = self.scores[i * self.cols + t.index()];
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some((i, v));
            }
        }
        best.map(|(i, v)| (ElementId(i as u32), Confidence::new(f64::from(v))))
    }

    /// Top-`k` targets for a source row, best first.
    pub fn top_k_for_source(&self, s: ElementId, k: usize) -> Vec<(ElementId, Confidence)> {
        let start = s.index() * self.cols;
        let row = &self.scores[start..start + self.cols];
        let mut pairs: Vec<(usize, f32)> = row.iter().copied().enumerate().collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        pairs
            .into_iter()
            .take(k)
            .map(|(j, v)| (ElementId(j as u32), Confidence::new(f64::from(v))))
            .collect()
    }

    /// Count of cells with score ≥ `threshold`: exactly the cells
    /// [`Self::iter_above`] yields.
    pub fn count_above(&self, threshold: Confidence) -> usize {
        self.iter_above(threshold).count()
    }

    /// Mean score over all cells (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        self.scores.iter().map(|&v| f64::from(v)).sum::<f64>() / self.scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MatchMatrix {
        let mut m = MatchMatrix::new(3, 2);
        m.set(ElementId(0), ElementId(0), Confidence::new(0.9));
        m.set(ElementId(0), ElementId(1), Confidence::new(-0.2));
        m.set(ElementId(1), ElementId(0), Confidence::new(0.1));
        m.set(ElementId(1), ElementId(1), Confidence::new(0.7));
        m.set(ElementId(2), ElementId(1), Confidence::new(0.4));
        m
    }

    #[test]
    fn get_set_round_trip() {
        let m = sample();
        assert!((m.get(ElementId(0), ElementId(0)).value() - 0.9).abs() < 1e-6);
        assert!((m.get(ElementId(2), ElementId(0)).value()).abs() < 1e-12);
        assert_eq!(m.len(), 6);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn best_per_source_and_target() {
        let m = sample();
        let (t, c) = m.best_for_source(ElementId(0)).unwrap();
        assert_eq!(t, ElementId(0));
        assert!((c.value() - 0.9).abs() < 1e-6);
        let (s, c2) = m.best_for_target(ElementId(1)).unwrap();
        assert_eq!(s, ElementId(1));
        assert!((c2.value() - 0.7).abs() < 1e-6);
    }

    #[test]
    fn top_k_sorted_descending() {
        let m = sample();
        let top = m.top_k_for_source(ElementId(1), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, ElementId(1));
        assert!(top[0].1.value() >= top[1].1.value());
        // k larger than cols truncates gracefully.
        assert_eq!(m.top_k_for_source(ElementId(1), 10).len(), 2);
    }

    #[test]
    fn threshold_iteration_and_count() {
        let m = sample();
        let th = Confidence::new(0.4);
        let hits: Vec<_> = m.iter_above(th).collect();
        assert_eq!(hits.len(), 3); // 0.9, 0.7, 0.4
        assert_eq!(m.count_above(th), 3);
        assert_eq!(m.count_above(Confidence::new(0.95)), 0);
    }

    #[test]
    fn count_above_counts_what_iter_above_yields() {
        // 0.7 rounds down in f32: the stored cell reads back below 0.7,
        // so the threshold selects nothing, and must count nothing.
        let mut m = MatchMatrix::new(1, 2);
        m.set(ElementId(0), ElementId(0), Confidence::new(0.7));
        let th = Confidence::new(0.7);
        assert_eq!(m.iter_above(th).count(), 0);
        assert_eq!(m.count_above(th), 0);
    }

    /// Raw `f32` cells around a threshold: the threshold rounded to `f32`
    /// and its two neighbours.
    fn neighbours(th: f64) -> [f32; 3] {
        let f = th as f32;
        let up = |v: f32| {
            if v == 0.0 {
                f32::from_bits(1)
            } else if v > 0.0 {
                f32::from_bits(v.to_bits() + 1)
            } else {
                f32::from_bits(v.to_bits() - 1)
            }
        };
        let down = |v: f32| -up(-v);
        [down(f), f, up(f)]
    }

    #[test]
    fn iter_above_yields_exactly_the_filtered_cells() {
        let limit = Confidence::LIMIT;
        let thresholds = [-limit, -0.5, 0.0, 0.3, 0.7, limit];
        let mut raw = vec![f32::NAN, 2.0, -2.0, -limit as f32, 0.0, -0.0];
        for th in thresholds {
            raw.extend(neighbours(th));
        }
        // Rows shorter and longer than a scan segment, and degenerate
        // shapes. Rows cycle through mixed raw cells, all zeros, all NaN
        // (passing every threshold <= 0) and all -2.0 (clamped to -LIMIT,
        // passing -LIMIT).
        for (rows, cols) in [(0, 5), (5, 0), (3, 7), (4, 150), (2, 64), (6, 129)] {
            let mut m = MatchMatrix::new(rows, cols);
            for (i, cell) in m.as_mut_slice().iter_mut().enumerate() {
                *cell = match (i / cols) % 4 {
                    0 => raw[(i * 7) % raw.len()],
                    1 => 0.0,
                    2 => f32::NAN,
                    _ => -2.0,
                };
            }
            for th in thresholds {
                let th = Confidence::new(th);
                let expected: Vec<_> = m.iter().filter(|c| c.2.value() >= th.value()).collect();
                let got: Vec<_> = m.iter_above(th).collect();
                let key = |v: &[(ElementId, ElementId, Confidence)]| -> Vec<(u32, u32, u64)> {
                    v.iter()
                        .map(|(s, t, c)| (s.0, t.0, c.value().to_bits()))
                        .collect()
                };
                assert_eq!(key(&got), key(&expected), "{rows}x{cols} at {th:?}");
                assert_eq!(m.count_above(th), expected.len());
            }
        }
    }

    #[test]
    fn iter_covers_all_cells_row_major() {
        let m = sample();
        let cells: Vec<_> = m.iter().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].0, ElementId(0));
        assert_eq!(cells[0].1, ElementId(0));
        assert_eq!(cells[5].0, ElementId(2));
        assert_eq!(cells[5].1, ElementId(1));
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = MatchMatrix::new(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.iter().count(), 0);
        let n = MatchMatrix::new(5, 0);
        assert!(n.best_for_source(ElementId(0)).is_none());
        assert!(n.best_for_target(ElementId(0)).is_none());
    }

    #[test]
    fn mean_score() {
        let m = sample();
        let expected = (0.9 - 0.2 + 0.1 + 0.7 + 0.4) / 6.0;
        assert!((m.mean() - expected).abs() < 1e-6);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = MatchMatrix::new(2, 3);
        m.row_mut(ElementId(1))[2] = 0.5;
        assert!((m.get(ElementId(1), ElementId(2)).value() - 0.5).abs() < 1e-6);
    }
}
