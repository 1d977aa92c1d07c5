//! Whole-behavior scheduling: every block of a CDFG, plus loop-aware
//! total latency — the machinery behind the paper's 23-step and 10-step
//! square-root schedules.

use hls_cdfg::{BlockId, Cdfg};

use crate::alap::alap_schedule_graph;
use crate::asap::asap_schedule_graph;
use crate::bb::branch_and_bound_schedule_graph;
use crate::bounds::SchedGraph;
use crate::force::ForceScheduler;
use crate::freedom::freedom_based_schedule_graph;
use crate::hforce::{HierForceScheduler, DEFAULT_WINDOW};
use crate::list::{list_schedule_graph, Priority};
use crate::resource::{OpClassifier, ResourceLimits};
use crate::schedule::{CdfgSchedule, Schedule};
use crate::transform::transformational_schedule_graph;
use crate::ScheduleError;

/// Which scheduling algorithm to run on each block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Resource-constrained ASAP (Fig. 3).
    Asap,
    /// Resource-constrained ALAP: per-block deadline = the ASAP schedule
    /// length + `slack`, retried with a longer horizon when backward
    /// packing runs out of room.
    Alap {
        /// Extra steps beyond each block's ASAP schedule length.
        slack: u32,
    },
    /// List scheduling with the given priority (Fig. 4).
    List(Priority),
    /// Force-directed (HAL): per-block deadline = critical path + `slack`.
    ForceDirected {
        /// Extra steps beyond each block's critical path.
        slack: u32,
    },
    /// Hierarchical windowed force-directed: per-block deadline =
    /// critical path + `slack`, placements restricted to mobility-band
    /// windows of `window` ops, independent components scheduled in
    /// parallel on the shared pool. With `window` at least the block's
    /// op count this degenerates to [`Algorithm::ForceDirected`].
    HierForce {
        /// Extra steps beyond each block's critical path.
        slack: u32,
        /// Window size in ops (clamped to at least 1).
        window: u32,
    },
    /// Freedom-based (MAHA): per-block deadline = critical path + `slack`.
    FreedomBased {
        /// Extra steps beyond each block's critical path.
        slack: u32,
    },
    /// Optimal branch-and-bound (EXPL) with a node budget.
    BranchAndBound {
        /// Search-node budget.
        node_budget: u64,
    },
    /// YSC-style transformational serialization.
    Transformational,
}

impl Algorithm {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Asap => "asap",
            Algorithm::Alap { .. } => "alap",
            Algorithm::List(_) => "list",
            Algorithm::ForceDirected { .. } => "force-directed",
            Algorithm::HierForce { .. } => "hier-force",
            Algorithm::FreedomBased { .. } => "freedom-based",
            Algorithm::BranchAndBound { .. } => "branch-and-bound",
            Algorithm::Transformational => "transformational",
        }
    }

    /// Parses a scheduler spec: `asap`, `alap[/N]`,
    /// `list[/path|/urgency|/mobility]`, `force[/N]`, `hforce[/N[/W]]`,
    /// `freedom[/N]`, `bb` or `transform` (`N` is the slack, `W` the
    /// window). `bb` searches up to 4 000 000 nodes.
    ///
    /// # Errors
    ///
    /// A message naming the spec when the algorithm is unknown or a
    /// slack or window does not parse.
    pub fn parse(spec: &str) -> Result<Algorithm, String> {
        let (head, arg) = spec
            .split_once('/')
            .map_or((spec, None), |(h, a)| (h, Some(a)));
        let bad = |what: &str| format!("invalid {what} in algorithm {spec:?}");
        let slack = |s: Option<&str>| s.map_or(Ok(0), |a| a.parse().map_err(|_| bad("slack")));
        match (head, arg) {
            ("asap", None) => Ok(Algorithm::Asap),
            ("alap", _) => Ok(Algorithm::Alap { slack: slack(arg)? }),
            ("list", None | Some("path")) => Ok(Algorithm::List(Priority::PathLength)),
            ("list", Some("urgency")) => Ok(Algorithm::List(Priority::Urgency)),
            ("list", Some("mobility")) => Ok(Algorithm::List(Priority::Mobility)),
            ("force", _) => Ok(Algorithm::ForceDirected { slack: slack(arg)? }),
            ("hforce", _) => {
                let (s, w) = match arg.and_then(|a| a.split_once('/')) {
                    Some((s, w)) => (Some(s), Some(w)),
                    None => (arg, None),
                };
                let slack = slack(s)?;
                let window = w.map_or(Some(DEFAULT_WINDOW as u32), |w| {
                    w.parse().ok().filter(|&w| w > 0)
                });
                let window = window.ok_or_else(|| bad("window"))?;
                Ok(Algorithm::HierForce { slack, window })
            }
            ("freedom", _) => Ok(Algorithm::FreedomBased { slack: slack(arg)? }),
            ("bb", None) => Ok(Algorithm::BranchAndBound {
                node_budget: 4_000_000,
            }),
            ("transform", None) => Ok(Algorithm::Transformational),
            _ => Err(format!("unknown algorithm {spec:?}")),
        }
    }

    /// The canonical spec [`Algorithm::parse`] reads back: every slack
    /// and window spelled out (`hforce/0/64`), the node budget left out.
    pub fn spec(self) -> String {
        match self {
            Algorithm::Asap => "asap".into(),
            Algorithm::Alap { slack } => format!("alap/{slack}"),
            Algorithm::List(Priority::PathLength) => "list/path".into(),
            Algorithm::List(Priority::Urgency) => "list/urgency".into(),
            Algorithm::List(Priority::Mobility) => "list/mobility".into(),
            Algorithm::ForceDirected { slack } => format!("force/{slack}"),
            Algorithm::HierForce { slack, window } => format!("hforce/{slack}/{window}"),
            Algorithm::FreedomBased { slack } => format!("freedom/{slack}"),
            Algorithm::BranchAndBound { .. } => "bb".into(),
            Algorithm::Transformational => "transform".into(),
        }
    }
}

/// Per-block dense dependence/bound analyses of a CDFG under one
/// classifier, built once and reused across [`schedule_cdfg_cached`]
/// calls — e.g. by a design-space sweep that schedules the same behavior
/// at many (algorithm, limits, slack) grid points.
#[derive(Clone, Debug)]
pub struct CdfgBoundsCache {
    blocks: Vec<(BlockId, SchedGraph)>,
}

impl CdfgBoundsCache {
    /// Analyzes every block of `cdfg` under `classifier`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Cycle`] if any block's DFG is cyclic.
    pub fn build(cdfg: &Cdfg, classifier: &OpClassifier) -> Result<Self, ScheduleError> {
        let mut blocks = Vec::new();
        for block in cdfg.block_order() {
            blocks.push((
                block,
                SchedGraph::build(&cdfg.block(block).dfg, classifier)?,
            ));
        }
        Ok(CdfgBoundsCache { blocks })
    }

    /// The cached analysis of `block`, if it exists in this CDFG.
    pub fn graph(&self, block: BlockId) -> Option<&SchedGraph> {
        self.blocks
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, sg)| sg)
    }

    /// All cached per-block analyses in block order. The QoR estimator
    /// walks this to derive per-block latency and FU bounds without
    /// scheduling.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &SchedGraph)> {
        self.blocks.iter().map(|(b, sg)| (*b, sg))
    }
}

/// Schedules every block of `cdfg` with `algorithm`.
///
/// Time-constrained algorithms (force-directed, freedom-based) derive each
/// block's deadline from its own critical path plus the configured slack;
/// resource-constrained algorithms obey `limits`.
///
/// # Errors
///
/// Propagates the first per-block scheduling error.
pub fn schedule_cdfg(
    cdfg: &Cdfg,
    classifier: &OpClassifier,
    limits: &ResourceLimits,
    algorithm: Algorithm,
) -> Result<CdfgSchedule, ScheduleError> {
    let cache = CdfgBoundsCache::build(cdfg, classifier)?;
    schedule_cdfg_cached(cdfg, classifier, limits, algorithm, &cache)
}

/// [`schedule_cdfg`] against a prebuilt [`CdfgBoundsCache`], which must
/// have been built from `cdfg` under `classifier`: every algorithm
/// schedules each block from its cached [`SchedGraph`], so topological
/// orders and ASAP/ALAP bounds are never recomputed per call.
///
/// # Errors
///
/// Propagates the first per-block scheduling error.
pub fn schedule_cdfg_cached(
    _cdfg: &Cdfg,
    _classifier: &OpClassifier,
    limits: &ResourceLimits,
    algorithm: Algorithm,
    cache: &CdfgBoundsCache,
) -> Result<CdfgSchedule, ScheduleError> {
    let mut out = CdfgSchedule::new();
    for (block, sg) in &cache.blocks {
        let deadline = |slack: u32| sg.asap().1.max(1) + slack;
        let schedule = match algorithm {
            Algorithm::Asap => asap_schedule_graph(sg, limits)?,
            Algorithm::Alap { slack } => alap_with_retry(sg, limits, slack)?,
            Algorithm::List(p) => list_schedule_graph(sg, limits, p)?,
            Algorithm::ForceDirected { slack } => {
                ForceScheduler::with_graph(sg.clone(), deadline(slack))?.finish()?
            }
            Algorithm::HierForce { slack, window } => {
                HierForceScheduler::with_graph(sg.clone(), deadline(slack), window as usize)?
                    .finish_on(hls_par::shared())?
            }
            Algorithm::FreedomBased { slack } => freedom_based_schedule_graph(sg, deadline(slack))?,
            Algorithm::BranchAndBound { node_budget } => {
                branch_and_bound_schedule_graph(sg, limits, node_budget)?
            }
            Algorithm::Transformational => transformational_schedule_graph(sg, limits)?.0,
        };
        out.insert(*block, schedule);
    }
    Ok(out)
}

/// Resource-constrained ALAP against a deadline derived from the ASAP
/// schedule length. Backward greedy packing can need a slightly longer
/// horizon than forward packing on the same instance, so an infeasible
/// deadline (`SearchBudgetExhausted`) is retried with a doubled horizon
/// a few times before giving up.
fn alap_with_retry(
    sg: &SchedGraph,
    limits: &ResourceLimits,
    slack: u32,
) -> Result<Schedule, ScheduleError> {
    let asap = asap_schedule_graph(sg, limits)?;
    let base = asap.num_steps().max(1).saturating_add(slack);
    let mut last = None;
    for attempt in 1..=4u32 {
        match alap_schedule_graph(sg, limits, base.saturating_mul(attempt)) {
            Ok(s) => return Ok(s),
            Err(e @ ScheduleError::SearchBudgetExhausted) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(ScheduleError::SearchBudgetExhausted))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every spec the service and the fuzzer accept parses, and the
    /// canonical ones round-trip through [`Algorithm::spec`].
    #[test]
    fn algorithm_specs_parse_and_roundtrip() {
        for spec in [
            "asap",
            "alap/0",
            "alap/2",
            "list/path",
            "list/urgency",
            "list/mobility",
            "force/0",
            "force/2",
            "hforce/0/64",
            "hforce/2/8",
            "hforce/2/4",
            "freedom/1",
            "bb",
            "transform",
        ] {
            let a = Algorithm::parse(spec).unwrap();
            assert_eq!(a.spec(), spec, "{spec}");
        }
        let w = DEFAULT_WINDOW as u32;
        for (spec, canonical) in [
            ("hforce", format!("hforce/0/{w}")),
            ("hforce/3", format!("hforce/3/{w}")),
            ("alap", "alap/0".to_string()),
            ("list", "list/path".to_string()),
        ] {
            assert_eq!(Algorithm::parse(spec).unwrap().spec(), canonical);
        }
        assert_eq!(
            Algorithm::parse("hforce/3"),
            Ok(Algorithm::HierForce {
                slack: 3,
                window: w
            })
        );
        assert_eq!(
            Algorithm::parse("bb"),
            Ok(Algorithm::BranchAndBound {
                node_budget: 4_000_000
            })
        );
        assert_eq!(
            Algorithm::parse("transform"),
            Ok(Algorithm::Transformational)
        );
        for (spec, err) in [
            ("quantum", "unknown algorithm \"quantum\""),
            ("bogus", "unknown algorithm \"bogus\""),
            ("list/bogus", "unknown algorithm \"list/bogus\""),
            ("asap/1", "unknown algorithm \"asap/1\""),
            ("bb/5", "unknown algorithm \"bb/5\""),
            ("force/x", "invalid slack in algorithm \"force/x\""),
            ("hforce/x/4", "invalid slack in algorithm \"hforce/x/4\""),
            ("hforce/x/0", "invalid slack in algorithm \"hforce/x/0\""),
            ("hforce/1/0", "invalid window in algorithm \"hforce/1/0\""),
            ("hforce/1/x", "invalid window in algorithm \"hforce/1/x\""),
            ("hforce/1/y", "invalid window in algorithm \"hforce/1/y\""),
        ] {
            assert_eq!(Algorithm::parse(spec), Err(err.to_string()), "{spec}");
        }
    }

    fn sqrt_cdfg() -> Cdfg {
        hls_lang::compile(hls_workloads::sources::SQRT).unwrap()
    }

    /// The paper's first headline number: one universal FU and one memory
    /// ⇒ "the computation takes 3 + 4·5 = 23 control steps".
    #[test]
    fn sqrt_serial_takes_23_steps() {
        let cdfg = sqrt_cdfg();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::single_universal();
        let s = schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        assert_eq!(s.total_latency(&cdfg), 23);
    }

    /// The second headline number: after the Fig. 2 optimizations, "with
    /// two functional units the operations can now be scheduled in
    /// 2 + 4·2 = 10 control steps" (the shift is free).
    #[test]
    fn sqrt_optimized_takes_10_steps_on_two_fus() {
        let mut cdfg = sqrt_cdfg();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(2);
        let s = schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        assert_eq!(s.total_latency(&cdfg), 10);
    }

    /// Intermediate sanity: optimization alone (still 1 FU) removes the
    /// multiply (shift is free) but the copy remains: 3 + 4·4 = 19.
    #[test]
    fn sqrt_optimized_single_fu_takes_19_steps() {
        let mut cdfg = sqrt_cdfg();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::single_universal();
        let s = schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        assert_eq!(s.total_latency(&cdfg), 19);
    }

    #[test]
    fn all_algorithms_schedule_sqrt() {
        let mut cdfg = sqrt_cdfg();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(2);
        for alg in [
            Algorithm::Asap,
            Algorithm::Alap { slack: 0 },
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
            Algorithm::ForceDirected { slack: 0 },
            Algorithm::HierForce {
                slack: 0,
                window: 4,
            },
            Algorithm::HierForce {
                slack: 1,
                window: 1024,
            },
            Algorithm::FreedomBased { slack: 0 },
            Algorithm::BranchAndBound {
                node_budget: 1_000_000,
            },
            Algorithm::Transformational,
        ] {
            let s = schedule_cdfg(&cdfg, &cls, &limits, alg)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            let lat = s.total_latency(&cdfg);
            assert!(lat >= 10, "{}: {lat}", alg.name());
            assert!(lat <= 23, "{}: {lat}", alg.name());
        }
    }

    #[test]
    fn gcd_schedules_with_branches() {
        let cdfg = hls_lang::compile(hls_workloads::sources::GCD).unwrap();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(1);
        let s = schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        // Latency with default single-trip loops is positive and counts the
        // while-condition block twice (entry + exit test).
        assert!(s.total_latency(&cdfg) > 0);
        assert!(s.latency_with_default_trip(&cdfg, 8) > s.total_latency(&cdfg));
    }
}
