//! Request/response schema of the synthesis service.
//!
//! Both endpoints take a JSON body naming a BSL `source` plus
//! configuration and return a JSON summary of the synthesized design.
//! Everything in a response body is a deterministic function of the
//! request — cache state, timing, and thread interleaving never leak
//! into it — which is what lets the response cache serve byte-identical
//! bodies and the load generator assert on digests.

use hls_cdfg::SystemCdfg;
use hls_core::{
    cdfg_fingerprint, pareto_front, CancelToken, ControlReport, ControlStyle, DeadlockVerdict,
    DesignPoint, GridPoint, GridSpec, ProcessSynthesis, PruneStats, SynthesisError,
    SynthesisResult, Synthesizer, SystemSynthesisResult,
};
use hls_ctrl::EncodingStyle;
use hls_sched::Algorithm;

use crate::json::Json;

/// A semantic request error (maps to HTTP 422).
#[derive(Clone, Debug)]
pub struct ApiError(pub String);

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

fn err(msg: impl Into<String>) -> ApiError {
    ApiError(msg.into())
}

/// Parses a control style (`hardwired/binary`, `hardwired/onehot`,
/// `hardwired/gray`, `microcode`).
pub fn parse_control(name: &str) -> Result<ControlStyle, ApiError> {
    match name {
        "hardwired" | "hardwired/binary" => Ok(ControlStyle::Hardwired(EncodingStyle::Binary)),
        "hardwired/onehot" => Ok(ControlStyle::Hardwired(EncodingStyle::OneHot)),
        "hardwired/gray" => Ok(ControlStyle::Hardwired(EncodingStyle::Gray)),
        "microcode" => Ok(ControlStyle::Microcode),
        _ => Err(err(format!("unknown control style {name:?}"))),
    }
}

/// Renders a control style in the notation [`parse_control`] accepts.
pub fn control_str(c: ControlStyle) -> String {
    match c {
        ControlStyle::Hardwired(EncodingStyle::Binary) => "hardwired/binary".into(),
        ControlStyle::Hardwired(EncodingStyle::OneHot) => "hardwired/onehot".into(),
        ControlStyle::Hardwired(EncodingStyle::Gray) => "hardwired/gray".into(),
        ControlStyle::Microcode => "microcode".into(),
    }
}

/// A fully parsed `/synthesize` request.
#[derive(Clone, Debug)]
pub struct SynthesizeRequest {
    /// BSL source text.
    pub source: String,
    /// The synthesizer the `config` object resolves to.
    pub synthesizer: Synthesizer,
    /// Include Verilog in the response.
    pub verilog: bool,
    /// Optional per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Test-only artificial delay (honored only when the server enables
    /// it); lets integration tests saturate the queue deterministically.
    pub test_delay_ms: u64,
    /// Test-only injected panic (honored only when the server enables
    /// it); lets integration tests exercise the panic firewall.
    pub test_panic: bool,
}

/// Resolves a `config` JSON object into a [`Synthesizer`], using the
/// borrowed setters so the base stays shared.
fn build_synthesizer(config: Option<&Json>) -> Result<Synthesizer, ApiError> {
    let mut syn = Synthesizer::default();
    let Some(config) = config else {
        return Ok(syn);
    };
    let Json::Obj(members) = config else {
        return Err(err("config must be an object"));
    };
    for (key, value) in members {
        match key.as_str() {
            "fus" => {
                let n = value
                    .as_u64()
                    .filter(|&n| (1..=64).contains(&n))
                    .ok_or_else(|| err("config.fus must be an integer in 1..=64"))?;
                syn.set_universal_fus(n as usize);
            }
            "algorithm" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| err("config.algorithm must be a string"))?;
                syn.set_algorithm(Algorithm::parse(name).map_err(ApiError)?);
            }
            "control" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| err("config.control must be a string"))?;
                syn.set_control(parse_control(name)?);
            }
            "optimize" => {
                let b = value
                    .as_bool()
                    .ok_or_else(|| err("config.optimize must be a boolean"))?;
                syn.set_optimize(b);
            }
            "unroll" => {
                let b = value
                    .as_bool()
                    .ok_or_else(|| err("config.unroll must be a boolean"))?;
                syn.set_unrolling(b);
            }
            "if_convert" => {
                let b = value
                    .as_bool()
                    .ok_or_else(|| err("config.if_convert must be a boolean"))?;
                syn.set_if_conversion(b);
            }
            other => return Err(err(format!("unknown config key {other:?}"))),
        }
    }
    Ok(syn)
}

impl SynthesizeRequest {
    /// Parses and validates a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let source = body
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing required string field \"source\""))?
            .to_string();
        let synthesizer = build_synthesizer(body.get("config"))?;
        let verilog = match body.get("verilog") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| err("verilog must be a boolean"))?,
        };
        let deadline_ms = match body.get("deadline_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| err("deadline_ms must be a positive integer"))?,
            ),
        };
        let test_delay_ms = match body.get("test_delay_ms") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| err("test_delay_ms must be a non-negative integer"))?,
        };
        let test_panic = match body.get("test_panic") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| err("test_panic must be a boolean"))?,
        };
        Ok(SynthesizeRequest {
            source,
            synthesizer,
            verilog,
            deadline_ms,
            test_delay_ms,
            test_panic,
        })
    }
}

/// A fully parsed `/explore` request.
#[derive(Clone, Debug)]
pub struct ExploreRequest {
    /// BSL source text.
    pub source: String,
    /// Base synthesizer the grid perturbs.
    pub synthesizer: Synthesizer,
    /// The sweep grid.
    pub spec: GridSpec,
    /// Run the estimator's dominance pre-pass and skip grid points
    /// provably absent from the Pareto front.
    pub prune: bool,
    /// Optional per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Resolves a `grid` JSON object into a validated [`GridSpec`]; omitted
/// axes fall back to the base synthesizer's configuration (or `[1,2,3]`
/// functional units).
fn parse_grid(grid: &Json, base: &Synthesizer) -> Result<GridSpec, ApiError> {
    let fus = match grid.get("fus") {
        None => vec![1, 2, 3],
        Some(v) => v
            .as_arr()
            .ok_or_else(|| err("grid.fus must be an array"))?
            .iter()
            .map(|n| {
                n.as_u64()
                    .filter(|&n| (1..=64).contains(&n))
                    .map(|n| n as usize)
                    .ok_or_else(|| err("grid.fus entries must be integers in 1..=64"))
            })
            .collect::<Result<_, _>>()?,
    };
    let algorithms = match grid.get("algorithms") {
        None => vec![base.configured_algorithm()],
        Some(v) => v
            .as_arr()
            .ok_or_else(|| err("grid.algorithms must be an array"))?
            .iter()
            .map(|a| {
                a.as_str()
                    .ok_or_else(|| err("grid.algorithms entries must be strings"))
                    .and_then(|a| Algorithm::parse(a).map_err(ApiError))
            })
            .collect::<Result<_, _>>()?,
    };
    let controls = match grid.get("controls") {
        None => vec![base.configured_control()],
        Some(v) => v
            .as_arr()
            .ok_or_else(|| err("grid.controls must be an array"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .ok_or_else(|| err("grid.controls entries must be strings"))
                    .and_then(parse_control)
            })
            .collect::<Result<_, _>>()?,
    };
    let spec = GridSpec {
        fus,
        algorithms,
        controls,
    };
    if spec.is_empty() {
        return Err(err("grid has an empty axis"));
    }
    if spec.len() > 4096 {
        return Err(err("grid too large (more than 4096 points)"));
    }
    Ok(spec)
}

impl ExploreRequest {
    /// Parses and validates a request body.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let source = body
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing required string field \"source\""))?
            .to_string();
        let synthesizer = build_synthesizer(body.get("config"))?;
        let grid = body.get("grid").ok_or_else(|| err("missing \"grid\""))?;
        let spec = parse_grid(grid, &synthesizer)?;
        let prune = match body.get("prune") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| err("prune must be a boolean"))?,
        };
        let deadline_ms = match body.get("deadline_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| err("deadline_ms must be a positive integer"))?,
            ),
        };
        Ok(ExploreRequest {
            source,
            synthesizer,
            spec,
            prune,
            deadline_ms,
        })
    }
}

/// A fully parsed `/v1/batch` request: a sweep whose points stream back
/// as NDJSON records carrying caller-assigned sequence numbers.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// BSL source text.
    pub source: String,
    /// Base synthesizer the grid points perturb.
    pub synthesizer: Synthesizer,
    /// The raw `config` object as sent, kept verbatim so a front
    /// process can re-render sub-batches for its workers without
    /// round-tripping through the typed form.
    pub config: Option<Json>,
    /// `(seq, point)` pairs in request order. Sequence numbers are
    /// unique but need not be contiguous: a front process carves one
    /// client batch into per-worker sub-batches with global seqs.
    pub points: Vec<(u64, GridPoint)>,
    /// Run the estimator's dominance pre-pass: pruned points stream
    /// back as `{"seq":k,"pruned":true,…}` records instead of results.
    pub prune: bool,
    /// Optional per-batch deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Test-only artificial delay per point (honored only when the
    /// server enables it).
    pub test_delay_ms: u64,
}

impl BatchRequest {
    /// Parses and validates a request body. Exactly one of `"grid"`
    /// (expanded front-side, seqs 0..n in grid order) or `"points"`
    /// (explicit `{"seq","fus","algorithm"?,"control"?}` records) must
    /// be present.
    pub fn from_json(body: &Json) -> Result<Self, ApiError> {
        let source = body
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing required string field \"source\""))?
            .to_string();
        let config = body.get("config").cloned();
        let synthesizer = build_synthesizer(config.as_ref())?;
        let points = match (body.get("grid"), body.get("points")) {
            (Some(_), Some(_)) => {
                return Err(err("give either \"grid\" or \"points\", not both"));
            }
            (Some(grid), None) => parse_grid(grid, &synthesizer)?
                .expand()
                .into_iter()
                .enumerate()
                .map(|(i, p)| (i as u64, p))
                .collect::<Vec<_>>(),
            (None, Some(points)) => {
                let arr = points
                    .as_arr()
                    .ok_or_else(|| err("points must be an array"))?;
                if arr.len() > 4096 {
                    return Err(err("too many points (more than 4096)"));
                }
                arr.iter()
                    .map(|p| {
                        let seq = p
                            .get("seq")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| err("each point needs an integer \"seq\""))?;
                        let fus = p
                            .get("fus")
                            .and_then(Json::as_u64)
                            .filter(|&n| (1..=64).contains(&n))
                            .ok_or_else(|| err("each point needs \"fus\" in 1..=64"))?
                            as usize;
                        let algorithm = match p.get("algorithm") {
                            None => synthesizer.configured_algorithm(),
                            Some(a) => Algorithm::parse(
                                a.as_str()
                                    .ok_or_else(|| err("point algorithm must be a string"))?,
                            )
                            .map_err(ApiError)?,
                        };
                        let control = match p.get("control") {
                            None => synthesizer.configured_control(),
                            Some(c) => parse_control(
                                c.as_str()
                                    .ok_or_else(|| err("point control must be a string"))?,
                            )?,
                        };
                        Ok((
                            seq,
                            GridPoint {
                                fus,
                                algorithm,
                                control,
                            },
                        ))
                    })
                    .collect::<Result<Vec<_>, ApiError>>()?
            }
            (None, None) => return Err(err("missing \"grid\" or \"points\"")),
        };
        if points.is_empty() {
            return Err(err("batch has no points"));
        }
        let mut seqs: Vec<u64> = points.iter().map(|(s, _)| *s).collect();
        seqs.sort_unstable();
        if seqs.windows(2).any(|w| w[0] == w[1]) {
            return Err(err("duplicate seq in points"));
        }
        let prune = match body.get("prune") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| err("prune must be a boolean"))?,
        };
        let deadline_ms = match body.get("deadline_ms") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| err("deadline_ms must be a positive integer"))?,
            ),
        };
        let test_delay_ms = match body.get("test_delay_ms") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| err("test_delay_ms must be a non-negative integer"))?,
        };
        Ok(BatchRequest {
            source,
            synthesizer,
            config,
            points,
            prune,
            deadline_ms,
            test_delay_ms,
        })
    }
}

/// 16-hex-digit rendering of a fingerprint.
fn hex_fp(fp: u64) -> Json {
    Json::Str(format!("{fp:016x}"))
}

/// Builds the deterministic response body for one synthesis result.
pub fn synthesize_response(
    req: &SynthesizeRequest,
    behavior_fp: u64,
    result: &SynthesisResult,
) -> Json {
    let control = match &result.control_report {
        ControlReport::Hardwired(h) => Json::Obj(vec![
            (
                "style".into(),
                Json::Str(control_str(ControlStyle::Hardwired(h.style))),
            ),
            ("state_bits".into(), Json::Num(h.state_bits as f64)),
            ("outputs".into(), Json::Num(h.outputs as f64)),
            ("terms".into(), Json::Num(h.terms as f64)),
            ("literals".into(), Json::Num(h.literals as f64)),
        ]),
        ControlReport::Microcode {
            words,
            horizontal_bits,
            encoded_bits,
        } => Json::Obj(vec![
            ("style".into(), Json::Str("microcode".into())),
            ("words".into(), Json::Num(*words as f64)),
            ("horizontal_bits".into(), Json::Num(*horizontal_bits as f64)),
            ("encoded_bits".into(), Json::Num(*encoded_bits as f64)),
        ]),
    };
    let mut members = vec![
        ("latency".into(), Json::Num(result.latency as f64)),
        ("fus".into(), Json::Num(result.datapath.fu_count() as f64)),
        (
            "registers".into(),
            Json::Num(result.datapath.reg_count() as f64),
        ),
        (
            "mux_inputs".into(),
            Json::Num(result.datapath.mux_inputs as f64),
        ),
        ("area".into(), Json::Num(result.area.total())),
        ("clock_ns".into(), Json::Num(result.area.clock_ns)),
        ("fsm_states".into(), Json::Num(result.fsm.len() as f64)),
        ("control".into(), control),
        (
            "fingerprints".into(),
            Json::Obj(vec![
                ("cdfg".into(), hex_fp(behavior_fp)),
                ("config".into(), hex_fp(req.synthesizer.fingerprint())),
            ]),
        ),
    ];
    if req.verilog {
        members.push(("verilog".into(), Json::Str(result.to_verilog())));
    }
    Json::Obj(members)
}

/// Combined behavior fingerprint for a multi-process system: folds the
/// full channel declarations (name, width, **depth**, endpoint
/// topology), shared-variable declarations, and every process's CDFG
/// fingerprint, so a semantic change anywhere in the system changes the
/// cache key. Every variable-length field is NUL-terminated so adjacent
/// declarations cannot alias (`chan ab; chan c` vs `chan a; chan bc`),
/// and each section is tagged so reordering declarations *between*
/// sections cannot collide either.
pub fn system_fingerprint(sys: &SystemCdfg) -> u64 {
    let mut w = hls_testkit::FnvWriter::new();
    let str_field = |w: &mut hls_testkit::FnvWriter, s: &str| {
        w.update(s.as_bytes());
        w.update(&[0]);
    };
    // Option<usize> endpoint as a 1-based u64 (0 = unconnected).
    let endpoint = |e: Option<usize>| (e.map_or(0, |i| i as u64 + 1)).to_le_bytes();
    str_field(&mut w, &sys.name);
    w.update(b"io\0");
    for (name, width) in &sys.inputs {
        str_field(&mut w, name);
        w.update(&[*width]);
    }
    for (name, owner) in &sys.outputs {
        str_field(&mut w, name);
        w.update(&(*owner as u64).to_le_bytes());
    }
    w.update(b"chan\0");
    for c in &sys.channels {
        str_field(&mut w, &c.name);
        w.update(&[c.width]);
        w.update(&c.depth.to_le_bytes());
        w.update(&endpoint(c.sender));
        w.update(&endpoint(c.receiver));
    }
    w.update(b"shared\0");
    for s in &sys.shared {
        str_field(&mut w, &s.name);
        w.update(&[s.width]);
    }
    w.update(b"proc\0");
    for p in &sys.processes {
        str_field(&mut w, &p.name);
        w.update(&cdfg_fingerprint(&p.cdfg).to_le_bytes());
    }
    w.finish()
}

/// Renders a static deadlock-analysis verdict as a JSON object with a
/// discriminating `"verdict"` member (`"free"` / `"deadlock"` /
/// `"unknown"`).
fn deadlock_json(v: &DeadlockVerdict) -> Json {
    match v {
        DeadlockVerdict::Free => Json::Obj(vec![("verdict".into(), Json::Str("free".into()))]),
        DeadlockVerdict::Deadlock { blocked, cycle } => Json::Obj(vec![
            ("verdict".into(), Json::Str("deadlock".into())),
            (
                "blocked".into(),
                Json::Arr(
                    blocked
                        .iter()
                        .map(|(p, op)| {
                            Json::Obj(vec![
                                ("process".into(), Json::Str(p.clone())),
                                ("op".into(), Json::Str(op.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cycle".into(),
                Json::Arr(cycle.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
        ]),
        DeadlockVerdict::Unknown { reason } => Json::Obj(vec![
            ("verdict".into(), Json::Str("unknown".into())),
            ("reason".into(), Json::Str(reason.clone())),
        ]),
    }
}

/// Builds the deterministic response body for one system-synthesis
/// result: per-process metrics in declaration order (the same metric
/// keys as single-process responses), the interconnect inventory, the
/// static deadlock verdict, and (on request) the elaborated top-level
/// Verilog.
pub fn system_response(
    req: &SynthesizeRequest,
    behavior_fp: u64,
    result: &SystemSynthesisResult,
) -> Json {
    let process_json = |p: &ProcessSynthesis| {
        Json::Obj(vec![
            ("name".into(), Json::Str(p.name.clone())),
            ("latency".into(), Json::Num(p.result.latency as f64)),
            ("fus".into(), Json::Num(p.result.datapath.fu_count() as f64)),
            (
                "registers".into(),
                Json::Num(p.result.datapath.reg_count() as f64),
            ),
            (
                "mux_inputs".into(),
                Json::Num(p.result.datapath.mux_inputs as f64),
            ),
            ("area".into(), Json::Num(p.result.area.total())),
            ("clock_ns".into(), Json::Num(p.result.area.clock_ns)),
            ("fsm_states".into(), Json::Num(p.result.fsm.len() as f64)),
        ])
    };
    let names = |it: &[String]| Json::Arr(it.iter().map(|n| Json::Str(n.clone())).collect());
    let channels: Vec<String> = result
        .system
        .channels
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let shared: Vec<String> = result
        .system
        .shared
        .iter()
        .map(|s| s.name.clone())
        .collect();
    let mut members = vec![
        ("system".into(), Json::Str(result.system.name.clone())),
        (
            "processes".into(),
            Json::Arr(result.processes.iter().map(process_json).collect()),
        ),
        ("channels".into(), names(&channels)),
        ("shared".into(), names(&shared)),
        ("deadlock".into(), deadlock_json(&result.deadlock)),
        (
            "area".into(),
            Json::Num(result.processes.iter().map(|p| p.result.area.total()).sum()),
        ),
        (
            "fingerprints".into(),
            Json::Obj(vec![
                ("cdfg".into(), hex_fp(behavior_fp)),
                ("config".into(), hex_fp(req.synthesizer.fingerprint())),
            ]),
        ),
    ];
    if req.verilog {
        members.push(("verilog".into(), Json::Str(result.to_verilog())));
    }
    Json::Obj(members)
}

/// Flat design-point rendering shared by `/explore` bodies and batch
/// summary pareto fronts.
fn point_json(p: &DesignPoint) -> Json {
    Json::Obj(vec![
        ("fus".into(), Json::Num(p.fus as f64)),
        ("algorithm".into(), Json::Str(p.algorithm.spec())),
        ("control".into(), Json::Str(control_str(p.control))),
        ("latency".into(), Json::Num(p.latency as f64)),
        ("area".into(), Json::Num(p.area)),
        ("registers".into(), Json::Num(p.registers as f64)),
        ("mux_inputs".into(), Json::Num(p.mux_inputs as f64)),
    ])
}

/// Builds the deterministic response body for one exploration sweep:
/// the points, their Pareto front and, for a pruned sweep, the estimator
/// counters under `"prune_stats"`. A pruned sweep's points are its
/// synthesized (surviving) ones, and its front is by construction
/// identical to the exhaustive sweep's.
pub fn explore_response(
    points: &[DesignPoint],
    stats: Option<&PruneStats>,
    behavior_fp: u64,
    config_fp: u64,
) -> Json {
    let mut body = vec![
        (
            "points".into(),
            Json::Arr(points.iter().map(point_json).collect()),
        ),
        (
            "pareto".into(),
            Json::Arr(pareto_front(points).iter().map(point_json).collect()),
        ),
    ];
    if let Some(stats) = stats {
        body.push(("prune_stats".into(), prune_stats_json(stats)));
    }
    body.push((
        "fingerprints".into(),
        Json::Obj(vec![
            ("cdfg".into(), hex_fp(behavior_fp)),
            ("config".into(), hex_fp(config_fp)),
        ]),
    ));
    Json::Obj(body)
}

/// Renders estimator/pruning counters as a JSON object.
fn prune_stats_json(stats: &PruneStats) -> Json {
    Json::Obj(vec![
        ("estimated".into(), Json::Num(stats.estimated as f64)),
        ("pruned".into(), Json::Num(stats.pruned as f64)),
        ("synthesized".into(), Json::Num(stats.synthesized as f64)),
        ("agreement".into(), Json::Num(stats.agreement)),
    ])
}

/// Renders a [`GridPoint`] as its three configuration axes.
pub fn grid_point_json(p: &GridPoint) -> Json {
    Json::Obj(vec![
        ("fus".into(), Json::Num(p.fus as f64)),
        ("algorithm".into(), Json::Str(p.algorithm.spec())),
        ("control".into(), Json::Str(control_str(p.control))),
    ])
}

/// One completed grid point as an NDJSON record:
/// `{"seq":k,"cache_hit":b,"point":{…},"result":{…}}`.
pub fn batch_point_record(seq: u64, cache_hit: bool, point: &GridPoint, d: &DesignPoint) -> Json {
    Json::Obj(vec![
        ("seq".into(), Json::Num(seq as f64)),
        ("cache_hit".into(), Json::Bool(cache_hit)),
        ("point".into(), grid_point_json(point)),
        (
            "result".into(),
            Json::Obj(vec![
                ("latency".into(), Json::Num(d.latency as f64)),
                ("area".into(), Json::Num(d.area)),
                ("registers".into(), Json::Num(d.registers as f64)),
                ("mux_inputs".into(), Json::Num(d.mux_inputs as f64)),
            ]),
        ),
    ])
}

/// One estimator-skipped grid point as an NDJSON record:
/// `{"seq":k,"pruned":true,"point":{…}}`. Pruned points are provably
/// absent from the exhaustive Pareto front, so no result is streamed.
pub fn batch_pruned_record(seq: u64, point: &GridPoint) -> Json {
    Json::Obj(vec![
        ("seq".into(), Json::Num(seq as f64)),
        ("pruned".into(), Json::Bool(true)),
        ("point".into(), grid_point_json(point)),
    ])
}

/// One failed grid point as an NDJSON record:
/// `{"seq":k,"error":{"code","message","stage"?}}`.
pub fn batch_error_record(seq: u64, code: &str, message: &str, stage: Option<&str>) -> Json {
    let mut inner = vec![
        ("code".into(), Json::Str(code.into())),
        ("message".into(), Json::Str(message.into())),
    ];
    if let Some(stage) = stage {
        inner.push(("stage".into(), Json::Str(stage.into())));
    }
    Json::Obj(vec![
        ("seq".into(), Json::Num(seq as f64)),
        ("error".into(), Json::Obj(inner)),
    ])
}

/// The terminal NDJSON summary line for a batch of `total` points:
/// counts plus the pareto front over the `completed` `(seq, point,
/// cache_hit)` records, taken in seq order so the rendering does not
/// depend on completion order. A pruned batch passes its pruned count,
/// which adds a `"pruned"` member after `"cache_hits"`; every point that
/// neither completed nor was pruned counts as an error.
pub fn batch_summary(
    total: usize,
    mut completed: Vec<(u64, DesignPoint, bool)>,
    pruned: Option<usize>,
) -> Json {
    completed.sort_by_key(|(seq, _, _)| *seq);
    let ok = completed.len();
    let cache_hits = completed.iter().filter(|(_, _, hit)| *hit).count();
    let errors = total.saturating_sub(ok + pruned.unwrap_or(0));
    let mut members = vec![
        ("points".into(), Json::Num(total as f64)),
        ("ok".into(), Json::Num(ok as f64)),
        ("errors".into(), Json::Num(errors as f64)),
        ("cache_hits".into(), Json::Num(cache_hits as f64)),
    ];
    if let Some(pruned) = pruned {
        members.push(("pruned".into(), Json::Num(pruned as f64)));
    }
    let points: Vec<DesignPoint> = completed.into_iter().map(|(_, dp, _)| dp).collect();
    members.push((
        "pareto".into(),
        Json::Arr(pareto_front(&points).iter().map(point_json).collect()),
    ));
    Json::Obj(vec![("summary".into(), Json::Obj(members))])
}

/// Builds the error envelope
/// `{"error":{"code","message","stage"?,"retry_after_ms"?}}`.
pub fn error_envelope(
    code: &str,
    message: &str,
    stage: Option<&str>,
    retry_after_ms: Option<u64>,
) -> Json {
    let mut inner = vec![
        ("code".into(), Json::Str(code.into())),
        ("message".into(), Json::Str(message.into())),
    ];
    if let Some(stage) = stage {
        inner.push(("stage".into(), Json::Str(stage.into())));
    }
    if let Some(ms) = retry_after_ms {
        inner.push(("retry_after_ms".into(), Json::Num(ms as f64)));
    }
    Json::Obj(vec![("error".into(), Json::Obj(inner))])
}

/// Splices `"cache_hit":b` in as the first member of a rendered JSON
/// object body. The cached rendering deliberately excludes the flag —
/// it is the one field that depends on cache state rather than the
/// request — so handlers add it at serve time without re-rendering.
pub fn with_cache_hit(body: &[u8], hit: bool) -> Vec<u8> {
    debug_assert!(body.first() == Some(&b'{'), "body must be a JSON object");
    let flag = if hit {
        "{\"cache_hit\":true"
    } else {
        "{\"cache_hit\":false"
    };
    let mut out = Vec::with_capacity(flag.len() + body.len() + 1);
    out.extend_from_slice(flag.as_bytes());
    if body.get(1) != Some(&b'}') {
        out.push(b',');
    }
    out.extend_from_slice(&body[1..]);
    out
}

/// Runs a parsed `/synthesize` request to completion.
///
/// # Errors
///
/// Propagates synthesis errors (including cancellation) for the caller
/// to map onto HTTP statuses.
pub fn run_synthesize(
    req: &SynthesizeRequest,
    cancel: &CancelToken,
) -> Result<(u64, SynthesisResult), SynthesisError> {
    let cdfg = hls_lang::compile(&req.source)?;
    let behavior_fp = cdfg_fingerprint(&cdfg);
    let result = req.synthesizer.synthesize_cancellable(cdfg, cancel)?;
    Ok((behavior_fp, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn control_names_roundtrip() {
        for name in [
            "hardwired/binary",
            "hardwired/onehot",
            "hardwired/gray",
            "microcode",
        ] {
            let c = parse_control(name).unwrap();
            assert_eq!(control_str(c), name, "{name}");
        }
        assert!(parse_control("telepathy").is_err());
    }

    #[test]
    fn synthesize_request_parses_and_configures() {
        let body = parse(
            r#"{"source":"x","config":{"fus":3,"algorithm":"asap","control":"microcode","optimize":false},"verilog":true}"#,
        )
        .unwrap();
        let req = SynthesizeRequest::from_json(&body).unwrap();
        assert!(req.verilog);
        let expected = Synthesizer::new()
            .universal_fus(3)
            .algorithm(Algorithm::Asap)
            .control(ControlStyle::Microcode)
            .without_optimization();
        assert_eq!(req.synthesizer.fingerprint(), expected.fingerprint());
    }

    #[test]
    fn synthesize_request_rejects_unknown_keys() {
        let body = parse(r#"{"source":"x","config":{"fuss":3}}"#).unwrap();
        let e = SynthesizeRequest::from_json(&body).unwrap_err();
        assert!(e.0.contains("unknown config key"), "{e}");
    }

    #[test]
    fn explore_request_defaults_and_bounds() {
        let body = parse(r#"{"source":"x","grid":{}}"#).unwrap();
        let req = ExploreRequest::from_json(&body).unwrap();
        assert_eq!(req.spec.fus, vec![1, 2, 3]);
        assert_eq!(req.spec.algorithms.len(), 1);
        assert_eq!(req.spec.controls.len(), 1);

        let body = parse(r#"{"source":"x","grid":{"fus":[]}}"#).unwrap();
        assert!(ExploreRequest::from_json(&body).is_err());
    }

    #[test]
    fn prune_flag_parses_on_explore_and_batch() {
        let body = parse(r#"{"source":"x","grid":{}}"#).unwrap();
        assert!(!ExploreRequest::from_json(&body).unwrap().prune);
        let body = parse(r#"{"source":"x","grid":{},"prune":true}"#).unwrap();
        assert!(ExploreRequest::from_json(&body).unwrap().prune);
        let body = parse(r#"{"source":"x","grid":{},"prune":"yes"}"#).unwrap();
        assert!(ExploreRequest::from_json(&body).is_err());

        let body = parse(r#"{"source":"x","grid":{"fus":[1,2]},"prune":true}"#).unwrap();
        assert!(BatchRequest::from_json(&body).unwrap().prune);
        let body = parse(r#"{"source":"x","grid":{"fus":[1,2]}}"#).unwrap();
        assert!(!BatchRequest::from_json(&body).unwrap().prune);
    }

    #[test]
    fn pruned_records_and_summaries_render_stably() {
        let p = GridPoint {
            fus: 3,
            algorithm: Algorithm::Asap,
            control: ControlStyle::Microcode,
        };
        assert_eq!(
            batch_pruned_record(9, &p).render(),
            r#"{"seq":9,"pruned":true,"point":{"fus":3,"algorithm":"asap","control":"microcode"}}"#
        );
        let d = DesignPoint {
            fus: 3,
            algorithm: Algorithm::Asap,
            control: ControlStyle::Microcode,
            latency: 10,
            area: 100.0,
            registers: 4,
            mux_inputs: 6,
        };
        let s = batch_summary(4, vec![(1, d.clone(), true), (0, d, false)], Some(2)).render();
        assert!(
            s.starts_with(r#"{"summary":{"points":4,"ok":2,"errors":0,"cache_hits":1,"pruned":2,"#),
            "{s}"
        );
        // The non-pruned summary keeps its exact shape.
        assert!(!batch_summary(4, Vec::new(), None)
            .render()
            .contains("pruned"));
    }

    #[test]
    fn batch_request_expands_grid_and_accepts_explicit_points() {
        let body =
            parse(r#"{"source":"x","grid":{"fus":[1,2],"algorithms":["asap","list/path"]}}"#)
                .unwrap();
        let req = BatchRequest::from_json(&body).unwrap();
        assert_eq!(req.points.len(), 4);
        assert_eq!(req.points[0].0, 0);
        assert_eq!(req.points[3].0, 3);
        // Grid order: fus outermost, then algorithms.
        assert_eq!(req.points[0].1.fus, 1);
        assert_eq!(req.points[2].1.fus, 2);

        let body = parse(
            r#"{"source":"x","points":[{"seq":7,"fus":2,"algorithm":"asap"},{"seq":3,"fus":1}]}"#,
        )
        .unwrap();
        let req = BatchRequest::from_json(&body).unwrap();
        assert_eq!(req.points.len(), 2);
        assert_eq!(req.points[0].0, 7, "seqs kept verbatim, order preserved");
        assert_eq!(req.points[1].0, 3);
        assert_eq!(req.points[0].1.algorithm, Algorithm::Asap);

        for bad in [
            r#"{"source":"x"}"#,
            r#"{"source":"x","grid":{},"points":[]}"#,
            r#"{"source":"x","points":[]}"#,
            r#"{"source":"x","points":[{"seq":1,"fus":1},{"seq":1,"fus":2}]}"#,
            r#"{"source":"x","points":[{"fus":1}]}"#,
            r#"{"source":"x","points":[{"seq":0,"fus":99}]}"#,
        ] {
            let body = parse(bad).unwrap();
            assert!(BatchRequest::from_json(&body).is_err(), "{bad}");
        }
    }

    #[test]
    fn error_envelope_and_batch_records_render_stably() {
        assert_eq!(
            error_envelope("overloaded", "server overloaded", None, Some(1000)).render(),
            r#"{"error":{"code":"overloaded","message":"server overloaded","retry_after_ms":1000}}"#
        );
        assert_eq!(
            error_envelope("deadline_exceeded", "cancelled", Some("schedule"), None).render(),
            r#"{"error":{"code":"deadline_exceeded","message":"cancelled","stage":"schedule"}}"#
        );
        assert_eq!(
            batch_error_record(4, "deadline_exceeded", "cancelled", Some("none")).render(),
            r#"{"seq":4,"error":{"code":"deadline_exceeded","message":"cancelled","stage":"none"}}"#
        );
        let p = GridPoint {
            fus: 2,
            algorithm: Algorithm::Asap,
            control: ControlStyle::Hardwired(EncodingStyle::Binary),
        };
        let d = DesignPoint {
            fus: 2,
            algorithm: Algorithm::Asap,
            control: ControlStyle::Hardwired(EncodingStyle::Binary),
            latency: 10,
            area: 100.5,
            registers: 7,
            mux_inputs: 12,
        };
        assert_eq!(
            batch_point_record(3, true, &p, &d).render(),
            concat!(
                r#"{"seq":3,"cache_hit":true,"#,
                r#""point":{"fus":2,"algorithm":"asap","control":"hardwired/binary"},"#,
                r#""result":{"latency":10,"area":100.5,"registers":7,"mux_inputs":12}}"#
            )
        );
        let s = batch_summary(1, vec![(3, d, true)], None).render();
        assert!(s.starts_with(r#"{"summary":{"points":1,"ok":1,"errors":0,"cache_hits":1,"#));
        assert!(s.contains(r#""pareto":[{"fus":2"#), "{s}");
    }

    #[test]
    fn cache_hit_splice_prepends_field() {
        assert_eq!(
            with_cache_hit(br#"{"latency":10}"#, false),
            br#"{"cache_hit":false,"latency":10}"#
        );
        assert_eq!(with_cache_hit(b"{}", true), br#"{"cache_hit":true}"#);
    }

    #[test]
    fn responses_are_deterministic() {
        let body = parse(
            format!(
                r#"{{"source":{:?},"config":{{"fus":2}}}}"#,
                hls_workloads::sources::SQRT
            )
            .as_str(),
        )
        .unwrap();
        let req = SynthesizeRequest::from_json(&body).unwrap();
        let tok = CancelToken::new();
        let (fp1, r1) = run_synthesize(&req, &tok).unwrap();
        let (fp2, r2) = run_synthesize(&req, &tok).unwrap();
        assert_eq!(fp1, fp2);
        assert_eq!(r1.latency, 10);
        let b1 = synthesize_response(&req, fp1, &r1).render();
        let b2 = synthesize_response(&req, fp2, &r2).render();
        assert_eq!(b1, b2, "identical requests must render identical bytes");
    }

    #[test]
    fn system_responses_are_deterministic() {
        let body = parse(
            format!(
                r#"{{"source":{:?},"verilog":true}}"#,
                hls_workloads::sources::PIPE3
            )
            .as_str(),
        )
        .unwrap();
        let req = SynthesizeRequest::from_json(&body).unwrap();
        let render = || {
            let sys = hls_lang::compile_system(&req.source).unwrap();
            let fp = system_fingerprint(&sys);
            let result = req.synthesizer.synthesize_system(sys).unwrap();
            system_response(&req, fp, &result).render()
        };
        let b1 = render();
        let b2 = render();
        assert_eq!(b1, b2, "identical requests must render identical bytes");
        assert!(b1.contains(r#""system":"pipe3""#), "{b1}");
        assert_eq!(b1.matches(r#""fsm_states""#).count(), 3, "{b1}");
        assert!(b1.contains(r#""channels":["c1","c2"]"#), "{b1}");
        assert!(b1.contains("module pipe3"), "{b1}");
        // PIPE3 is an acyclic pipeline: the static analysis proves it.
        assert!(b1.contains(r#""deadlock":{"verdict":"free"}"#), "{b1}");
    }

    #[test]
    fn system_fingerprint_sees_channel_depth_and_declarations() {
        let fp = |src: &str| system_fingerprint(&hls_lang::compile_system(src).unwrap());
        let base = "system s; input X; output Y; chan c;
             process a; begin send c, X; end;
             process b; var v; begin recv c, v; Y := v; end;
             end.";
        // Same processes, but the channel gains a buffer: different
        // semantics (never deadlocks on crossed patterns), so it must be
        // a different cache key.
        let buffered = base.replace("chan c;", "chan c : fix[2];");
        assert_ne!(fp(base), fp(&buffered), "depth must change the key");
        assert_ne!(
            fp(&buffered),
            fp(&base.replace("chan c;", "chan c : fix[3];")),
            "distinct depths must differ"
        );
        // Adjacent declarations must not alias through concatenation:
        // the channel names fold as "ab"+"c" vs "a"+"bc" here.
        let two_a = fp("system s; output Y; chan ab; chan c;
             process p; begin send ab, 1; send c, 2; Y := 0; end;
             process q; var v; begin recv ab, v; recv c, v; end;
             end.");
        let two_b = fp("system s; output Y; chan a; chan bc;
             process p; begin send a, 1; send bc, 2; Y := 0; end;
             process q; var v; begin recv a, v; recv bc, v; end;
             end.");
        assert_ne!(two_a, two_b, "declaration splits must differ");
    }
}
