//! Register allocation: the left-edge algorithm (REAL — tutorial
//! reference [15]) and graph coloring.

use hls_cdfg::{DenseMap, ValueId};

use crate::lifetime::{max_live, Interval};

/// The result of register allocation over one block's intervals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegisterAllocation {
    /// Register index per value.
    pub assignment: DenseMap<ValueId, usize>,
    /// Number of registers used.
    pub count: usize,
}

impl RegisterAllocation {
    /// The register holding `value`, if stored.
    pub fn register_of(&self, value: ValueId) -> Option<usize> {
        self.assignment.get(value).copied()
    }

    /// Checks that no two values sharing a register overlap.
    pub fn is_valid(&self, intervals: &[Interval]) -> bool {
        for (i, a) in intervals.iter().enumerate() {
            for b in &intervals[i + 1..] {
                if self.assignment.get(a.value) == self.assignment.get(b.value) && a.overlaps(b) {
                    return false;
                }
            }
        }
        intervals
            .iter()
            .all(|i| self.assignment.get(i.value).is_some())
    }
}

/// REAL's left-edge algorithm: sort by start ("the earliest value to
/// assign at each step"), pack each value into the lowest-numbered
/// register free at its start.
///
/// Provably uses exactly [`max_live`] registers — the minimum.
pub fn left_edge(intervals: &[Interval]) -> RegisterAllocation {
    let mut sorted: Vec<&Interval> = intervals.iter().collect();
    sorted.sort_by_key(|i| (i.start, i.end, i.value));
    let mut reg_free_at: Vec<u32> = Vec::new(); // first step each register is free again
    let slots = intervals.iter().map(|i| i.value.index() + 1).max();
    let mut assignment = DenseMap::with_len(slots.unwrap_or(0));
    for iv in sorted {
        let slot = reg_free_at.iter().position(|&free| free <= iv.start);
        let reg = match slot {
            Some(r) => r,
            None => {
                reg_free_at.push(0);
                reg_free_at.len() - 1
            }
        };
        reg_free_at[reg] = iv.end + 1;
        assignment.insert(iv.value, reg);
    }
    RegisterAllocation {
        count: reg_free_at.len(),
        assignment,
    }
}

/// Greedy graph coloring on the interference graph, highest-degree first.
///
/// Interval interference graphs are, in fact, interval graphs, so both
/// methods reach the optimum; coloring is here as the general technique
/// (and for the comparison in experiment E10).
pub fn color_registers(intervals: &[Interval]) -> RegisterAllocation {
    let n = intervals.len();
    let mut degree: Vec<usize> = vec![0; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && intervals[i].overlaps(&intervals[j]) {
                degree[i] += 1;
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(degree[i]), intervals[i].value));
    let mut color: Vec<Option<usize>> = vec![None; n];
    let mut count = 0;
    for &i in &order {
        let mut used: Vec<bool> = vec![false; count + 1];
        for j in 0..n {
            if j != i && intervals[i].overlaps(&intervals[j]) {
                if let Some(c) = color[j] {
                    if c < used.len() {
                        used[c] = true;
                    }
                }
            }
        }
        // There is always a free color in 0..=used.len(): either a gap in
        // the used set or the fresh color past its end.
        let c = (0..used.len()).find(|&c| !used[c]).unwrap_or(used.len());
        color[i] = Some(c);
        count = count.max(c + 1);
    }
    // The loop above colored every index; the `if let` keeps this total
    // without a panicking path.
    let mut assignment = DenseMap::default();
    for (iv, c) in intervals.iter().zip(color) {
        if let Some(c) = c {
            assignment.insert(iv.value, c);
        }
    }
    RegisterAllocation { assignment, count }
}

/// The provable minimum register count for these intervals.
pub fn minimum_registers(intervals: &[Interval]) -> usize {
    max_live(intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::Id;

    fn iv(raw: u32, start: u32, end: u32) -> Interval {
        Interval {
            value: Id::from_raw(raw),
            start,
            end,
        }
    }

    #[test]
    fn left_edge_reaches_max_live() {
        // Three overlapping then one reusable.
        let ivs = vec![iv(0, 0, 2), iv(1, 1, 3), iv(2, 2, 2), iv(3, 3, 5)];
        let a = left_edge(&ivs);
        assert!(a.is_valid(&ivs));
        assert_eq!(a.count, minimum_registers(&ivs));
        assert_eq!(a.count, 3);
        // Value 3 (starts at 3) reuses a register freed by value 0 or 2.
        assert!(a.register_of(Id::from_raw(3)).unwrap() < 3);
    }

    #[test]
    fn coloring_matches_left_edge_on_interval_graphs() {
        let ivs = vec![
            iv(0, 0, 4),
            iv(1, 0, 1),
            iv(2, 2, 3),
            iv(3, 1, 2),
            iv(4, 4, 6),
            iv(5, 5, 6),
        ];
        let le = left_edge(&ivs);
        let gc = color_registers(&ivs);
        assert!(le.is_valid(&ivs));
        assert!(gc.is_valid(&ivs));
        assert_eq!(le.count, gc.count);
        assert_eq!(le.count, minimum_registers(&ivs));
    }

    #[test]
    fn disjoint_intervals_share_one_register() {
        let ivs = vec![iv(0, 0, 0), iv(1, 1, 1), iv(2, 2, 2)];
        let a = left_edge(&ivs);
        assert_eq!(a.count, 1);
        assert!(a.is_valid(&ivs));
    }

    #[test]
    fn empty_input() {
        let a = left_edge(&[]);
        assert_eq!(a.count, 0);
        assert!(a.is_valid(&[]));
    }

    fn gen_spans(rng: &mut hls_testkit::SplitMix64) -> Vec<(u32, u32)> {
        rng.vec(1, 40, |r| (r.u32_in(0, 20), r.u32_in(0, 8)))
    }

    fn to_intervals(spans: &[(u32, u32)]) -> Vec<Interval> {
        spans
            .iter()
            .enumerate()
            .map(|(i, &(s, l))| iv(i as u32, s, s + l))
            .collect()
    }

    /// Left-edge is always valid and always hits the max-live bound.
    #[test]
    fn left_edge_optimal_on_random_intervals() {
        hls_testkit::forall(&hls_testkit::Config::default(), gen_spans, |spans| {
            let ivs = to_intervals(spans);
            let a = left_edge(&ivs);
            assert!(a.is_valid(&ivs));
            assert_eq!(a.count, minimum_registers(&ivs));
        });
    }

    /// Coloring is always valid and never beats the lower bound.
    #[test]
    fn coloring_valid_on_random_intervals() {
        hls_testkit::forall(&hls_testkit::Config::default(), gen_spans, |spans| {
            let ivs = to_intervals(spans);
            let a = color_registers(&ivs);
            assert!(a.is_valid(&ivs));
            assert!(a.count >= minimum_registers(&ivs));
        });
    }
}
