//! Lowering: compiles a parsed [`Program`] into a [`Cdfg`].
//!
//! This is the tutorial's "compilation of the formal language into an
//! internal representation" (§2). Straight-line statement runs become basic
//! blocks holding pure data-flow graphs; loops and conditionals become
//! control regions. Variables are resolved to value arcs *within* a block
//! (removing "the dependence on the way internal variables are used in the
//! specification"); across blocks they flow as named live-ins/live-outs.
//!
//! Two lowering details matter for reproducing the paper's numbers:
//!
//! * An assignment whose right-hand side is a bare constant or variable
//!   (e.g. `I := 0`) becomes a `Copy` operation — a register transfer that
//!   occupies a control step on a functional unit, which is how the paper
//!   counts 3 pre-loop steps for the sqrt example.
//! * Counted `do..until` loops are recognized and annotated with their trip
//!   count (4 for the sqrt example), which whole-behavior latency uses.

use std::collections::{BTreeSet, HashMap};

use crate::ast::{BinOp, Expr, FuncDecl, Program, Stmt, SystemDecl, Type, UnOp};
use crate::error::ParseError;
use hls_cdfg::system::{chan_ok_port, chan_rx_port, chan_tx_port, shared_ld_port, shared_st_port};
use hls_cdfg::{
    Cdfg, ChannelSpec, DataFlowGraph, Fx, IfRegion, LoopKind, LoopRegion, OpKind, ProcessCdfg,
    Region, SharedSpec, SyncOp, SystemCdfg, ValueId,
};

/// Maximum iterations explored when inferring a loop trip count.
const TRIP_SEARCH_CAP: u64 = 1 << 20;

/// Compiles `prog` to a control/data-flow graph.
///
/// # Errors
///
/// Returns [`ParseError`] for semantic problems: references to undeclared
/// variables, unknown or recursive functions, or calls with the wrong
/// argument count.
///
/// # Examples
///
/// ```
/// let prog = hls_lang::parse(
///     "program double; input x; output y; begin y := x + x; end."
/// )?;
/// let cdfg = hls_lang::lower(&prog)?;
/// assert_eq!(cdfg.total_ops(), 1);
/// # Ok::<(), hls_lang::ParseError>(())
/// ```
pub fn lower(prog: &Program) -> Result<Cdfg, ParseError> {
    lower_with(prog, &[], &[])
}

/// Lowers `prog` in a system context: `chans` and `shareds` are the
/// system-level channel and shared-variable declarations visible to the
/// process body (both empty for a plain program).
fn lower_with(
    prog: &Program,
    chans: &[(String, Type, u32)],
    shareds: &[(String, Type)],
) -> Result<Cdfg, ParseError> {
    let mut cdfg = Cdfg::new(&prog.name);
    for (n, t) in &prog.inputs {
        cdfg.declare_input(n, t.width());
    }
    for (n, _) in &prog.outputs {
        cdfg.declare_output(n);
    }
    let funcs: HashMap<&str, &FuncDecl> = prog
        .functions
        .iter()
        .map(|f| (f.name.as_str(), f))
        .collect();
    let mut lw = Lowerer {
        prog,
        funcs,
        cdfg,
        exit_counter: 0,
        block_counter: 0,
        chans,
        shareds,
    };
    let body = lw.lower_stmts(&prog.body, None)?;
    let body = if prog.arrays.is_empty() {
        body
    } else {
        // Initialize one memory-state token per array so every block can
        // read its live-in token (see the `Load`/`Store` docs in hls-cdfg).
        let mut init = DataFlowGraph::new();
        for (name, _) in &prog.arrays {
            let z = init.add_const_value(Fx::ZERO);
            init.set_output(&mem_token(name), z);
        }
        let ib = lw.cdfg.add_block("mem_init", init);
        Region::Seq(vec![Region::Block(ib), body])
    };
    lw.cdfg.set_body(body);
    lw.cdfg
        .validate()
        .map_err(|e| ParseError::without_pos(format!("internal lowering error: {e}")))?;
    Ok(lw.cdfg)
}

/// Parses and lowers in one step.
///
/// # Errors
///
/// Propagates lexical, syntactic, and semantic errors.
pub fn compile(src: &str) -> Result<Cdfg, ParseError> {
    lower(&crate::parser::parse(src)?)
}

/// Compiles a parsed [`SystemDecl`] into a [`SystemCdfg`]: one CDFG per
/// process, with channel `send`/`recv` and shared-variable accesses lowered
/// to sync blocks over reserved port variables (`{chan}__tx`, `{chan}__rx`,
/// `{var}__ld`, `{var}__st`).
///
/// # Errors
///
/// Returns [`ParseError`] for semantic problems: undeclared channels, a
/// channel with two senders or two receivers, a process sending to itself,
/// a system output written by zero or several processes, shared variables
/// used outside simple assignments, or reserved `__` names in declarations.
pub fn lower_system(sys: &SystemDecl) -> Result<SystemCdfg, ParseError> {
    check_system_decls(sys)?;
    let funcs_free = function_free_vars(sys)?;

    let mut channels: Vec<ChannelSpec> = sys
        .chans
        .iter()
        .map(|(n, t, d)| ChannelSpec {
            name: n.clone(),
            width: t.width(),
            depth: *d,
            sender: None,
            receiver: None,
        })
        .collect();
    let mut output_owner: Vec<Option<usize>> = vec![None; sys.outputs.len()];
    let mut processes = Vec::new();

    for (pi, p) in sys.processes.iter().enumerate() {
        let mut sends = BTreeSet::new();
        let mut recvs = BTreeSet::new();
        let mut tries = BTreeSet::new();
        scan_channel_ops(&p.body, &mut sends, &mut recvs, &mut tries);
        for c in sends.iter().chain(&recvs) {
            if !sys.chans.iter().any(|(n, _, _)| n == c) {
                return Err(ParseError::without_pos(format!(
                    "process `{}` uses undeclared channel `{c}`",
                    p.name
                )));
            }
        }
        for c in &tries {
            let depth = sys
                .chans
                .iter()
                .find(|(n, _, _)| n == c)
                .map(|(_, _, d)| *d)
                .unwrap_or(0);
            if depth == 0 {
                return Err(ParseError::without_pos(format!(
                    "process `{}`: `try_send`/`try_recv` on channel `{c}` requires a \
                     buffered channel (declare it `chan {c} : fix[N];` with N >= 1)",
                    p.name
                )));
            }
        }
        for c in &sends {
            let spec = channels
                .iter_mut()
                .find(|s| &s.name == c)
                .expect("checked above");
            if spec.receiver == Some(pi) || recvs.contains(c) {
                return Err(ParseError::without_pos(format!(
                    "process `{}` both sends and receives on channel `{c}`",
                    p.name
                )));
            }
            if let Some(prev) = spec.sender.replace(pi) {
                return Err(ParseError::without_pos(format!(
                    "channel `{c}` has two senders: `{}` and `{}`",
                    sys.processes[prev].name, p.name
                )));
            }
        }
        for c in &recvs {
            let spec = channels
                .iter_mut()
                .find(|s| &s.name == c)
                .expect("checked above");
            if let Some(prev) = spec.receiver.replace(pi) {
                return Err(ParseError::without_pos(format!(
                    "channel `{c}` has two receivers: `{}` and `{}`",
                    sys.processes[prev].name, p.name
                )));
            }
        }

        let mut reads = BTreeSet::new();
        scan_reads(&p.body, &funcs_free, &mut reads);
        let mut writes = BTreeSet::new();
        scan_writes(&p.body, &mut writes);

        for (n, _) in &sys.inputs {
            if writes.contains(n) {
                return Err(ParseError::without_pos(format!(
                    "process `{}` writes system input `{n}`",
                    p.name
                )));
            }
        }
        for (oi, (o, _)) in sys.outputs.iter().enumerate() {
            if writes.contains(o) {
                if let Some(prev) = output_owner[oi].replace(pi) {
                    return Err(ParseError::without_pos(format!(
                        "output `{o}` is written by two processes: `{}` and `{}`",
                        sys.processes[prev].name, p.name
                    )));
                }
            } else if reads.contains(o) {
                return Err(ParseError::without_pos(format!(
                    "process `{}` reads output `{o}` it does not write; use a channel",
                    p.name
                )));
            }
        }

        // The synthetic single-process program: system inputs it reads plus
        // the reserved channel/shared ports it uses become its I/O, so the
        // per-process netlist grows the handshake data ports for free.
        let mut inputs: Vec<(String, Type)> = sys
            .inputs
            .iter()
            .filter(|(n, _)| reads.contains(n))
            .cloned()
            .collect();
        for (c, t, _) in &sys.chans {
            if recvs.contains(c) {
                inputs.push((chan_rx_port(c), *t));
            }
            if tries.contains(c) {
                inputs.push((chan_ok_port(c), Type::Bit));
            }
        }
        for (s, t) in &sys.shareds {
            if reads.contains(s) {
                inputs.push((shared_ld_port(s), *t));
            }
        }
        let mut outputs: Vec<(String, Type)> = sys
            .outputs
            .iter()
            .filter(|(n, _)| writes.contains(n))
            .cloned()
            .collect();
        for (c, t, _) in &sys.chans {
            if sends.contains(c) {
                outputs.push((chan_tx_port(c), *t));
            }
        }
        for (s, t) in &sys.shareds {
            if writes.contains(s) {
                outputs.push((shared_st_port(s), *t));
            }
        }
        let prog = Program {
            name: format!("{}_{}", sys.name, p.name),
            inputs,
            outputs,
            vars: p.vars.clone(),
            arrays: p.arrays.clone(),
            functions: sys.functions.clone(),
            body: p.body.clone(),
        };
        let cdfg = lower_with(&prog, &sys.chans, &sys.shareds)?;
        processes.push(ProcessCdfg {
            name: p.name.clone(),
            cdfg,
        });
    }

    let outputs = sys
        .outputs
        .iter()
        .zip(&output_owner)
        .map(|((n, _), owner)| {
            owner.map(|pi| (n.clone(), pi)).ok_or_else(|| {
                ParseError::without_pos(format!("output `{n}` is not written by any process"))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let system = SystemCdfg {
        name: sys.name.clone(),
        inputs: sys
            .inputs
            .iter()
            .map(|(n, t)| (n.clone(), t.width()))
            .collect(),
        outputs,
        channels,
        shared: sys
            .shareds
            .iter()
            .map(|(n, t)| SharedSpec {
                name: n.clone(),
                width: t.width(),
            })
            .collect(),
        processes,
    };
    system
        .validate()
        .map_err(|e| ParseError::without_pos(format!("internal lowering error: {e}")))?;
    Ok(system)
}

/// Parses and lowers a multi-process system source in one step.
///
/// # Errors
///
/// Propagates lexical, syntactic, and semantic errors.
///
/// # Examples
///
/// ```
/// let sys = hls_lang::compile_system("
///     system pipe;
///     input X; output Y;
///     chan c;
///     process prod;
///     begin send c, X + 1; end;
///     process cons;
///     var v;
///     begin recv c, v; Y := v * 2; end;
///     end.
/// ")?;
/// assert_eq!(sys.processes.len(), 2);
/// assert_eq!(sys.channel("c").unwrap().sender, Some(0));
/// # Ok::<(), hls_lang::ParseError>(())
/// ```
pub fn compile_system(src: &str) -> Result<SystemCdfg, ParseError> {
    lower_system(&crate::parser::parse_system(src)?)
}

/// Declaration-level hygiene for a system: unique names, no reserved `__`
/// substrings, no shared variables hidden inside function bodies.
fn check_system_decls(sys: &SystemDecl) -> Result<(), ParseError> {
    let reserved = |name: &str, what: &str| -> Result<(), ParseError> {
        if name.contains("__") {
            Err(ParseError::without_pos(format!(
                "{what} `{name}`: names containing `__` are reserved for channel and \
                 shared-variable ports"
            )))
        } else {
            Ok(())
        }
    };
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let system_decls = sys
        .inputs
        .iter()
        .map(|(n, _)| (n.as_str(), "input"))
        .chain(sys.outputs.iter().map(|(n, _)| (n.as_str(), "output")))
        .chain(sys.chans.iter().map(|(n, _, _)| (n.as_str(), "channel")))
        .chain(
            sys.shareds
                .iter()
                .map(|(n, _)| (n.as_str(), "shared variable")),
        );
    for (name, what) in system_decls {
        reserved(name, what)?;
        if !seen.insert(name) {
            return Err(ParseError::without_pos(format!(
                "{what} `{name}` collides with another system declaration"
            )));
        }
    }
    let mut proc_names: BTreeSet<&str> = BTreeSet::new();
    for p in &sys.processes {
        reserved(&p.name, "process")?;
        if !proc_names.insert(&p.name) {
            return Err(ParseError::without_pos(format!(
                "two processes named `{}`",
                p.name
            )));
        }
        let locals = p
            .vars
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(p.arrays.iter().map(|(n, _)| n.as_str()));
        for n in locals {
            reserved(n, "variable")?;
            if seen.contains(n) {
                return Err(ParseError::without_pos(format!(
                    "process `{}` local `{n}` shadows a system declaration",
                    p.name
                )));
            }
        }
    }
    Ok(())
}

/// Per-function free variables (body reads minus parameters, transitively
/// through calls), used to detect which system names a process touches via
/// inlined functions. Rejects functions reading shared variables: inlining
/// would smuggle an unguarded read past the mutex lowering.
fn function_free_vars(sys: &SystemDecl) -> Result<HashMap<String, BTreeSet<String>>, ParseError> {
    let mut free: HashMap<String, BTreeSet<String>> = sys
        .functions
        .iter()
        .map(|f| (f.name.clone(), BTreeSet::new()))
        .collect();
    for _ in 0..=sys.functions.len() {
        let mut changed = false;
        for f in &sys.functions {
            let mut vars = Vec::new();
            expr_vars(&f.body, &mut vars);
            let mut set: BTreeSet<String> =
                vars.into_iter().filter(|v| !f.params.contains(v)).collect();
            for callee in called_functions(&f.body) {
                if let Some(cf) = free.get(&callee) {
                    set.extend(cf.iter().filter(|v| !f.params.contains(v)).cloned());
                }
            }
            let entry = free.get_mut(&f.name).expect("seeded above");
            if &set != entry {
                *entry = set;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for f in &sys.functions {
        if let Some(s) = free[&f.name]
            .iter()
            .find(|v| sys.shareds.iter().any(|(n, _)| &n == v))
        {
            return Err(ParseError::without_pos(format!(
                "function `{}` reads shared variable `{s}`; shared access must be a direct \
                 assignment",
                f.name
            )));
        }
    }
    Ok(free)
}

/// Function names called (recursively) within `expr`.
fn called_functions(expr: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Num(_) | Expr::Var(_) => {}
            Expr::Unary(_, e) => walk(e, out),
            Expr::Binary(_, l, r) => {
                walk(l, out);
                walk(r, out);
            }
            Expr::Index(_, idx) => walk(idx, out),
            Expr::Call(name, args) => {
                out.push(name.clone());
                for a in args {
                    walk(a, out);
                }
            }
        }
    }
    walk(expr, &mut out);
    out
}

/// Channels sent on / received from anywhere in `stmts`. `tries` collects
/// channels touched by a non-blocking `try_send`/`try_recv` (which also
/// count as the process's send/recv endpoint of that channel).
fn scan_channel_ops(
    stmts: &[Stmt],
    sends: &mut BTreeSet<String>,
    recvs: &mut BTreeSet<String>,
    tries: &mut BTreeSet<String>,
) {
    for s in stmts {
        match s {
            Stmt::Send { chan, .. } => {
                sends.insert(chan.clone());
            }
            Stmt::Recv { chan, .. } => {
                recvs.insert(chan.clone());
            }
            Stmt::TrySend { chan, .. } => {
                sends.insert(chan.clone());
                tries.insert(chan.clone());
            }
            Stmt::TryRecv { chan, .. } => {
                recvs.insert(chan.clone());
                tries.insert(chan.clone());
            }
            Stmt::Assign { .. } | Stmt::ArrayAssign { .. } => {}
            Stmt::DoUntil { body, .. } | Stmt::While { body, .. } => {
                scan_channel_ops(body, sends, recvs, tries);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                scan_channel_ops(then_body, sends, recvs, tries);
                scan_channel_ops(else_body, sends, recvs, tries);
            }
        }
    }
}

/// Every variable name read anywhere in `stmts` (expanding function calls
/// through their free-variable sets).
fn scan_reads(
    stmts: &[Stmt],
    funcs_free: &HashMap<String, BTreeSet<String>>,
    out: &mut BTreeSet<String>,
) {
    let add_expr = |e: &Expr, out: &mut BTreeSet<String>| {
        let mut vars = Vec::new();
        expr_vars(e, &mut vars);
        out.extend(vars);
        for f in called_functions(e) {
            if let Some(fv) = funcs_free.get(&f) {
                out.extend(fv.iter().cloned());
            }
        }
    };
    for s in stmts {
        match s {
            Stmt::Assign { expr, .. } | Stmt::Send { expr, .. } | Stmt::TrySend { expr, .. } => {
                add_expr(expr, out)
            }
            Stmt::ArrayAssign { index, expr, .. } => {
                add_expr(index, out);
                add_expr(expr, out);
            }
            Stmt::Recv { .. } | Stmt::TryRecv { .. } => {}
            Stmt::DoUntil { body, cond } => {
                add_expr(cond, out);
                scan_reads(body, funcs_free, out);
            }
            Stmt::While { cond, body } => {
                add_expr(cond, out);
                scan_reads(body, funcs_free, out);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                add_expr(cond, out);
                scan_reads(then_body, funcs_free, out);
                scan_reads(else_body, funcs_free, out);
            }
        }
    }
}

/// Every variable name written anywhere in `stmts`.
fn scan_writes(stmts: &[Stmt], out: &mut BTreeSet<String>) {
    for s in stmts {
        match s {
            Stmt::Assign { name, .. } | Stmt::Recv { name, .. } => {
                out.insert(name.clone());
            }
            Stmt::TrySend { flag, .. } => {
                out.insert(flag.clone());
            }
            Stmt::TryRecv { name, flag, .. } => {
                out.insert(name.clone());
                out.insert(flag.clone());
            }
            Stmt::ArrayAssign { .. } | Stmt::Send { .. } => {}
            Stmt::DoUntil { body, .. } | Stmt::While { body, .. } => scan_writes(body, out),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                scan_writes(then_body, out);
                scan_writes(else_body, out);
            }
        }
    }
}

/// The threaded memory-state variable of array `name`.
fn mem_token(name: &str) -> String {
    format!("%mem_{name}")
}

struct Lowerer<'a> {
    prog: &'a Program,
    funcs: HashMap<&'a str, &'a FuncDecl>,
    cdfg: Cdfg,
    exit_counter: usize,
    block_counter: usize,
    /// System-level channel declarations (empty for plain programs).
    chans: &'a [(String, Type, u32)],
    /// System-level shared-variable declarations (empty for plain programs).
    shareds: &'a [(String, Type)],
}

/// Per-block lowering state.
struct BlockCtx {
    dfg: DataFlowGraph,
    env: HashMap<String, ValueId>,
    written: Vec<String>,
}

impl BlockCtx {
    fn new() -> Self {
        BlockCtx {
            dfg: DataFlowGraph::new(),
            env: HashMap::new(),
            written: Vec::new(),
        }
    }
}

impl<'a> Lowerer<'a> {
    fn fresh_exit(&mut self) -> String {
        self.exit_counter += 1;
        format!("%exit{}", self.exit_counter)
    }

    fn fresh_block(&mut self, hint: &str) -> String {
        self.block_counter += 1;
        format!("{hint}{}", self.block_counter)
    }

    fn width_of(&self, name: &str) -> Result<u8, ParseError> {
        self.prog
            .type_of(name)
            .map(|t| t.width())
            .ok_or_else(|| ParseError::without_pos(format!("unknown variable `{name}`")))
    }

    fn check_array(&self, name: &str) -> Result<(), ParseError> {
        if self.prog.arrays.iter().any(|(n, _)| n == name) {
            Ok(())
        } else {
            Err(ParseError::without_pos(format!("unknown array `{name}`")))
        }
    }

    /// Reads the current memory-state token of `array` within `ctx`.
    fn read_token(&self, ctx: &mut BlockCtx, array: &str) -> ValueId {
        let key = mem_token(array);
        if let Some(&v) = ctx.env.get(&key) {
            return v;
        }
        let v = ctx.dfg.add_input(&key, 32);
        ctx.env.insert(key, v);
        v
    }

    /// Installs `token` as the new memory state of `array` (and marks it a
    /// block output, so the sequence threads across blocks).
    fn write_token(&self, ctx: &mut BlockCtx, array: &str, token: ValueId) {
        let key = mem_token(array);
        ctx.env.insert(key.clone(), token);
        if !ctx.written.contains(&key) {
            ctx.written.push(key);
        }
    }

    fn check_chan(&self, name: &str) -> Result<(), ParseError> {
        if self.chans.iter().any(|(n, _, _)| n == name) {
            Ok(())
        } else {
            Err(ParseError::without_pos(format!("unknown channel `{name}`")))
        }
    }

    fn is_shared(&self, name: &str) -> bool {
        self.shareds.iter().any(|(n, _)| n == name)
    }

    /// The shared variables read by `expr`, in first-use order.
    fn shared_vars_in(&self, expr: &Expr) -> Vec<String> {
        let mut vars = Vec::new();
        expr_vars(expr, &mut vars);
        let mut out = Vec::new();
        for v in vars {
            if self.is_shared(&v) && !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Rejects shared-variable reads in contexts that are not a plain
    /// assignment (where the mutex grant could not be made atomic).
    fn check_no_shared(&self, expr: &Expr, what: &str) -> Result<(), ParseError> {
        match self.shared_vars_in(expr).first() {
            None => Ok(()),
            Some(s) => Err(ParseError::without_pos(format!(
                "shared variable `{s}` cannot appear in {what}; copy it into a local first"
            ))),
        }
    }

    /// Lowers one straight-line statement (`Assign`/`ArrayAssign`) into an
    /// already-open block context. Shared by [`Self::flush_run`] and
    /// [`Self::emit_sync_block`].
    fn lower_straight(&mut self, ctx: &mut BlockCtx, s: &Stmt) -> Result<(), ParseError> {
        match s {
            Stmt::Assign { name, expr } => {
                let width = self.width_of(name)?;
                let mut v = self.lower_expr(ctx, expr, &mut Vec::new())?;
                // A bare constant or variable on the RHS is a register
                // transfer: materialize it as a Copy op (it costs a
                // control step). So is a value that already belongs to
                // another variable (`X := id(Y)` with `id(a) = a`):
                // renaming it would take it from that variable.
                let owner = &ctx.dfg.value(v).name;
                if matches!(expr, Expr::Num(_) | Expr::Var(_))
                    || !(owner.is_empty() || owner == name)
                {
                    let cp = ctx.dfg.add_op(OpKind::Copy, vec![v]);
                    v = ctx.dfg.result(cp).expect("copy has a result");
                }
                ctx.dfg.value_mut(v).width = width;
                ctx.dfg.value_mut(v).name = name.clone();
                ctx.env.insert(name.clone(), v);
                if !ctx.written.contains(name) {
                    ctx.written.push(name.clone());
                }
            }
            Stmt::ArrayAssign { name, index, expr } => {
                self.check_array(name)?;
                let addr = self.lower_expr(ctx, index, &mut Vec::new())?;
                let data = self.lower_expr(ctx, expr, &mut Vec::new())?;
                let token = self.read_token(ctx, name);
                let st = ctx.dfg.add_op(OpKind::Store, vec![addr, data, token]);
                ctx.dfg.op_mut(st).memory = Some(name.clone());
                let new_token = ctx.dfg.result(st).expect("store yields a token");
                self.write_token(ctx, name, new_token);
            }
            other => unreachable!("straight-line statements only: {other:?}"),
        }
        Ok(())
    }

    /// Emits a short statement run as its own sync block: the channel or
    /// mutex synchronization happens at the block boundary; the block body
    /// is ordinary data flow over the reserved port variables. Try-ops pass
    /// two statements (the data move plus the flag sample); everything else
    /// passes one.
    fn emit_sync_block(
        &mut self,
        stmts: &[Stmt],
        hint: &str,
        sync: SyncOp,
        pieces: &mut Vec<Region>,
    ) -> Result<(), ParseError> {
        let mut ctx = BlockCtx::new();
        for stmt in stmts {
            self.lower_straight(&mut ctx, stmt)?;
        }
        for w in &ctx.written {
            ctx.dfg.set_output(w, ctx.env[w]);
        }
        let name = self.fresh_block(hint);
        let id = self.cdfg.add_sync_block(&name, ctx.dfg, sync);
        pieces.push(Region::Block(id));
        Ok(())
    }

    /// Lowers an assignment touching a shared variable into an atomic
    /// mutex-guarded sync block: reads of the shared variable become reads
    /// of its load port, a write targets its store port.
    fn emit_shared_sync(
        &mut self,
        name: &str,
        expr: &Expr,
        pieces: &mut Vec<Region>,
    ) -> Result<(), ParseError> {
        let reads = self.shared_vars_in(expr);
        let writes = self.is_shared(name);
        let mut involved = reads.clone();
        if writes && !involved.iter().any(|v| v == name) {
            involved.push(name.to_string());
        }
        if involved.len() > 1 {
            return Err(ParseError::without_pos(format!(
                "statement touches shared variables `{}` and `{}`; only one shared variable \
                 per statement can be held under the mutex",
                involved[0], involved[1]
            )));
        }
        let svar = involved.first().expect("at least one shared var").clone();
        let desugared = Stmt::Assign {
            name: if writes {
                shared_st_port(name)
            } else {
                name.to_string()
            },
            expr: subst_shared_reads(expr, self.shareds),
        };
        self.emit_sync_block(
            std::slice::from_ref(&desugared),
            &format!("mutex_{svar}_"),
            SyncOp::Shared {
                var: svar,
                read: !reads.is_empty(),
                write: writes,
            },
            pieces,
        )
    }

    /// Lowers a statement list (plus an optional trailing condition
    /// expression bound to `tail`'s variable name) into a region.
    fn lower_stmts(
        &mut self,
        stmts: &[Stmt],
        tail: Option<(&str, &Expr)>,
    ) -> Result<Region, ParseError> {
        let mut pieces: Vec<Region> = Vec::new();
        let mut run: Vec<&Stmt> = Vec::new();
        // Constant values of variables, tracked along the straight-line
        // spine of this list for trip-count inference.
        let mut known: HashMap<String, Fx> = HashMap::new();
        for s in stmts {
            match s {
                Stmt::Assign { name, expr } => {
                    if self.is_shared(name) || !self.shared_vars_in(expr).is_empty() {
                        self.flush_run(&mut run, &mut pieces, None)?;
                        self.emit_shared_sync(name, expr, &mut pieces)?;
                        known.remove(name);
                        continue;
                    }
                    match expr.as_num() {
                        Some(c) => {
                            known.insert(name.clone(), c);
                        }
                        None => {
                            known.remove(name);
                        }
                    }
                    run.push(s);
                }
                Stmt::Send { chan, expr } => {
                    self.check_chan(chan)?;
                    self.check_no_shared(expr, "a `send` value")?;
                    self.flush_run(&mut run, &mut pieces, None)?;
                    let desugared = Stmt::Assign {
                        name: chan_tx_port(chan),
                        expr: expr.clone(),
                    };
                    self.emit_sync_block(
                        std::slice::from_ref(&desugared),
                        &format!("send_{chan}_"),
                        SyncOp::Send { chan: chan.clone() },
                        &mut pieces,
                    )?;
                }
                Stmt::Recv { chan, name } => {
                    self.check_chan(chan)?;
                    if self.is_shared(name) {
                        return Err(ParseError::without_pos(format!(
                            "cannot `recv` into shared variable `{name}`; receive into a local \
                             and assign it"
                        )));
                    }
                    self.flush_run(&mut run, &mut pieces, None)?;
                    let desugared = Stmt::Assign {
                        name: name.clone(),
                        expr: Expr::Var(chan_rx_port(chan)),
                    };
                    self.emit_sync_block(
                        std::slice::from_ref(&desugared),
                        &format!("recv_{chan}_"),
                        SyncOp::Recv { chan: chan.clone() },
                        &mut pieces,
                    )?;
                    known.remove(name);
                }
                Stmt::TrySend { chan, expr, flag } => {
                    self.check_chan(chan)?;
                    self.check_no_shared(expr, "a `try_send` value")?;
                    if self.is_shared(flag) {
                        return Err(ParseError::without_pos(format!(
                            "cannot use shared variable `{flag}` as a `try_send` flag"
                        )));
                    }
                    self.flush_run(&mut run, &mut pieces, None)?;
                    let desugared = [
                        Stmt::Assign {
                            name: chan_tx_port(chan),
                            expr: expr.clone(),
                        },
                        Stmt::Assign {
                            name: flag.clone(),
                            expr: Expr::Var(chan_ok_port(chan)),
                        },
                    ];
                    self.emit_sync_block(
                        &desugared,
                        &format!("try_send_{chan}_"),
                        SyncOp::TrySend { chan: chan.clone() },
                        &mut pieces,
                    )?;
                    known.remove(flag);
                }
                Stmt::TryRecv { chan, name, flag } => {
                    self.check_chan(chan)?;
                    if self.is_shared(name) || self.is_shared(flag) {
                        return Err(ParseError::without_pos(format!(
                            "cannot `try_recv` into shared variable `{}`; receive into a \
                             local and assign it",
                            if self.is_shared(name) { name } else { flag }
                        )));
                    }
                    if name == flag {
                        return Err(ParseError::without_pos(format!(
                            "`try_recv` destination and flag must be different variables \
                             (both are `{name}`)"
                        )));
                    }
                    self.flush_run(&mut run, &mut pieces, None)?;
                    let desugared = [
                        Stmt::Assign {
                            name: name.clone(),
                            expr: Expr::Var(chan_rx_port(chan)),
                        },
                        Stmt::Assign {
                            name: flag.clone(),
                            expr: Expr::Var(chan_ok_port(chan)),
                        },
                    ];
                    self.emit_sync_block(
                        &desugared,
                        &format!("try_recv_{chan}_"),
                        SyncOp::TryRecv { chan: chan.clone() },
                        &mut pieces,
                    )?;
                    known.remove(name);
                    known.remove(flag);
                }
                Stmt::ArrayAssign { index, expr, .. } => {
                    self.check_no_shared(index, "an array index")?;
                    self.check_no_shared(expr, "an array store")?;
                    run.push(s);
                }
                Stmt::DoUntil { body, cond } => {
                    self.check_no_shared(cond, "a loop condition")?;
                    self.flush_run(&mut run, &mut pieces, None)?;
                    let exit = self.fresh_exit();
                    let trip = infer_do_until_trip(body, cond, &known);
                    let body_region = self.lower_stmts(body, Some((&exit, cond)))?;
                    pieces.push(Region::Loop(LoopRegion {
                        body: Box::new(body_region),
                        kind: LoopKind::DoUntil,
                        cond_block: None,
                        exit_var: exit,
                        trip_hint: trip,
                    }));
                    invalidate_written(body, &mut known);
                }
                Stmt::While { cond, body } => {
                    self.check_no_shared(cond, "a loop condition")?;
                    self.flush_run(&mut run, &mut pieces, None)?;
                    let exit = self.fresh_exit();
                    let mut cb = BlockCtx::new();
                    let v = self.lower_expr(&mut cb, cond, &mut Vec::new())?;
                    cb.dfg.set_output(&exit, v);
                    let name = self.fresh_block("while_cond");
                    let cond_block = self.cdfg.add_block(&name, cb.dfg);
                    let trip = infer_while_trip(body, cond, &known);
                    let body_region = self.lower_stmts(body, None)?;
                    pieces.push(Region::Loop(LoopRegion {
                        body: Box::new(body_region),
                        kind: LoopKind::While,
                        cond_block: Some(cond_block),
                        exit_var: exit,
                        trip_hint: trip,
                    }));
                    invalidate_written(body, &mut known);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.check_no_shared(cond, "an `if` condition")?;
                    if contains_chan_op(then_body) || contains_chan_op(else_body) {
                        // Conditional communication would make the rendezvous
                        // order data-dependent; the interconnect and the
                        // deterministic (Kahn-style) semantics require
                        // unconditional channel programs.
                        return Err(ParseError::without_pos(
                            "`send`/`recv` are not allowed inside `if` branches",
                        ));
                    }
                    self.flush_run(&mut run, &mut pieces, None)?;
                    let cv = self.fresh_exit();
                    let mut cb = BlockCtx::new();
                    let v = self.lower_expr(&mut cb, cond, &mut Vec::new())?;
                    cb.dfg.set_output(&cv, v);
                    let name = self.fresh_block("if_cond");
                    let cond_block = self.cdfg.add_block(&name, cb.dfg);
                    let then_region = self.lower_stmts(then_body, None)?;
                    let else_region = if else_body.is_empty() {
                        None
                    } else {
                        Some(Box::new(self.lower_stmts(else_body, None)?))
                    };
                    pieces.push(Region::If(IfRegion {
                        cond_block,
                        cond_var: cv,
                        then_region: Box::new(then_region),
                        else_region,
                    }));
                    invalidate_written(then_body, &mut known);
                    invalidate_written(else_body, &mut known);
                }
            }
        }
        self.flush_run(&mut run, &mut pieces, tail)?;
        Ok(match pieces.len() {
            1 => pieces.into_iter().next().expect("one piece"),
            _ => Region::Seq(pieces),
        })
    }

    /// Turns the accumulated straight-line `run` (plus optional trailing
    /// condition) into a basic block, if nonempty.
    fn flush_run(
        &mut self,
        run: &mut Vec<&Stmt>,
        pieces: &mut Vec<Region>,
        tail: Option<(&str, &Expr)>,
    ) -> Result<(), ParseError> {
        if run.is_empty() && tail.is_none() {
            return Ok(());
        }
        let mut ctx = BlockCtx::new();
        for s in run.drain(..) {
            self.lower_straight(&mut ctx, s)?;
        }
        if let Some((exit_name, cond)) = tail {
            let v = self.lower_expr(&mut ctx, cond, &mut Vec::new())?;
            ctx.dfg.set_output(exit_name, v);
        }
        for w in &ctx.written {
            ctx.dfg.set_output(w, ctx.env[w]);
        }
        let name = self.fresh_block("blk");
        let id = self.cdfg.add_block(&name, ctx.dfg);
        pieces.push(Region::Block(id));
        Ok(())
    }

    /// Lowers an expression inside `ctx`, returning its value.
    ///
    /// `call_stack` guards against recursive function inlining.
    fn lower_expr(
        &self,
        ctx: &mut BlockCtx,
        expr: &Expr,
        call_stack: &mut Vec<String>,
    ) -> Result<ValueId, ParseError> {
        match expr {
            Expr::Num(n) => Ok(ctx.dfg.add_const_value(*n)),
            Expr::Var(name) => {
                if let Some(&v) = ctx.env.get(name) {
                    return Ok(v);
                }
                let width = self.width_of(name)?;
                let v = ctx.dfg.add_input(name, width);
                ctx.env.insert(name.clone(), v);
                Ok(v)
            }
            Expr::Unary(op, e) => {
                let v = self.lower_expr(ctx, e, call_stack)?;
                let kind = match op {
                    UnOp::Neg => OpKind::Neg,
                    UnOp::Not => OpKind::Not,
                };
                let id = ctx.dfg.add_op(kind, vec![v]);
                Ok(ctx.dfg.result(id).expect("unary has a result"))
            }
            Expr::Binary(op, l, r) => {
                let lv = self.lower_expr(ctx, l, call_stack)?;
                let rv = self.lower_expr(ctx, r, call_stack)?;
                let kind = bin_kind(*op);
                let id = ctx.dfg.add_op(kind, vec![lv, rv]);
                Ok(ctx.dfg.result(id).expect("binary has a result"))
            }
            Expr::Index(name, idx) => {
                self.check_array(name)?;
                let addr = self.lower_expr(ctx, idx, call_stack)?;
                // `self` is immutable here only for the environment; memory
                // tokens live in `ctx`, which is mutable.
                let token = {
                    let key = mem_token(name);
                    if let Some(&v) = ctx.env.get(&key) {
                        v
                    } else {
                        let v = ctx.dfg.add_input(&key, 32);
                        ctx.env.insert(key, v);
                        v
                    }
                };
                let ld = ctx.dfg.add_op(OpKind::Load, vec![addr, token]);
                ctx.dfg.op_mut(ld).memory = Some(name.clone());
                let data = ctx.dfg.result(ld).expect("load yields data");
                // The loaded value doubles as the next memory-state token,
                // serializing subsequent accesses after this load.
                let key = mem_token(name);
                ctx.env.insert(key.clone(), data);
                if !ctx.written.contains(&key) {
                    ctx.written.push(key);
                }
                Ok(data)
            }
            Expr::Call(name, args) => {
                let f = self
                    .funcs
                    .get(name.as_str())
                    .ok_or_else(|| ParseError::without_pos(format!("unknown function `{name}`")))?;
                if call_stack.iter().any(|c| c == name) {
                    return Err(ParseError::without_pos(format!(
                        "recursive function `{name}` cannot be inlined"
                    )));
                }
                if args.len() != f.params.len() {
                    return Err(ParseError::without_pos(format!(
                        "function `{name}` expects {} arguments, got {}",
                        f.params.len(),
                        args.len()
                    )));
                }
                // Inline expansion: lower the arguments, then lower the body
                // with parameters bound to the argument values.
                let mut bound = HashMap::new();
                for (p, a) in f.params.iter().zip(args) {
                    bound.insert(p.clone(), self.lower_expr(ctx, a, call_stack)?);
                }
                call_stack.push(name.clone());
                let saved: Vec<(String, Option<ValueId>)> = f
                    .params
                    .iter()
                    .map(|p| (p.clone(), ctx.env.get(p).copied()))
                    .collect();
                for (p, v) in &bound {
                    ctx.env.insert(p.clone(), *v);
                }
                let result = self.lower_expr(ctx, &f.body, call_stack);
                for (p, old) in saved {
                    match old {
                        Some(v) => ctx.env.insert(p, v),
                        None => ctx.env.remove(&p),
                    };
                }
                call_stack.pop();
                result
            }
        }
    }
}

fn bin_kind(op: BinOp) -> OpKind {
    match op {
        BinOp::Add => OpKind::Add,
        BinOp::Sub => OpKind::Sub,
        BinOp::Mul => OpKind::Mul,
        BinOp::Div => OpKind::Div,
        BinOp::Mod => OpKind::Mod,
        BinOp::Shl => OpKind::Shl,
        BinOp::Shr => OpKind::Shr,
        BinOp::And => OpKind::And,
        BinOp::Or => OpKind::Or,
        BinOp::Xor => OpKind::Xor,
        BinOp::Eq => OpKind::Eq,
        BinOp::Ne => OpKind::Ne,
        BinOp::Lt => OpKind::Lt,
        BinOp::Le => OpKind::Le,
        BinOp::Gt => OpKind::Gt,
        BinOp::Ge => OpKind::Ge,
    }
}

/// Collects every variable name read by `expr` (array names and called
/// function names excluded; function-body free variables are handled by
/// [`function_free_vars`] at the system level).
fn expr_vars(expr: &Expr, out: &mut Vec<String>) {
    match expr {
        Expr::Num(_) => {}
        Expr::Var(v) => out.push(v.clone()),
        Expr::Unary(_, e) => expr_vars(e, out),
        Expr::Binary(_, l, r) => {
            expr_vars(l, out);
            expr_vars(r, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_vars(a, out);
            }
        }
        Expr::Index(_, idx) => expr_vars(idx, out),
    }
}

/// Rewrites reads of shared variables into reads of their load ports.
fn subst_shared_reads(expr: &Expr, shareds: &[(String, Type)]) -> Expr {
    match expr {
        Expr::Num(n) => Expr::Num(*n),
        Expr::Var(v) => {
            if shareds.iter().any(|(n, _)| n == v) {
                Expr::Var(shared_ld_port(v))
            } else {
                Expr::Var(v.clone())
            }
        }
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(subst_shared_reads(e, shareds))),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(subst_shared_reads(l, shareds)),
            Box::new(subst_shared_reads(r, shareds)),
        ),
        Expr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter()
                .map(|a| subst_shared_reads(a, shareds))
                .collect(),
        ),
        Expr::Index(name, idx) => {
            Expr::Index(name.clone(), Box::new(subst_shared_reads(idx, shareds)))
        }
    }
}

/// `true` when any statement (recursively) is a *blocking* `send` or
/// `recv`. Non-blocking `try_send`/`try_recv` are permitted in branches:
/// they never hold the FSM, so conditional occurrence cannot stall a
/// partner process.
fn contains_chan_op(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Send { .. } | Stmt::Recv { .. } => true,
        Stmt::TrySend { .. } | Stmt::TryRecv { .. } => false,
        Stmt::Assign { .. } | Stmt::ArrayAssign { .. } => false,
        Stmt::DoUntil { body, .. } | Stmt::While { body, .. } => contains_chan_op(body),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => contains_chan_op(then_body) || contains_chan_op(else_body),
    })
}

/// Drops constant knowledge for every variable written in `stmts`.
fn invalidate_written(stmts: &[Stmt], known: &mut HashMap<String, Fx>) {
    for s in stmts {
        match s {
            Stmt::Assign { name, .. } | Stmt::Recv { name, .. } => {
                known.remove(name);
            }
            Stmt::TrySend { flag, .. } => {
                known.remove(flag);
            }
            Stmt::TryRecv { name, flag, .. } => {
                known.remove(name);
                known.remove(flag);
            }
            Stmt::ArrayAssign { .. } | Stmt::Send { .. } => {}
            Stmt::DoUntil { body, .. } | Stmt::While { body, .. } => {
                invalidate_written(body, known);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                invalidate_written(then_body, known);
                invalidate_written(else_body, known);
            }
        }
    }
}

/// Recognizes the counted-loop pattern `IV := c0; do ... IV := IV ± c ...
/// until IV cmp bound` and returns the trip count.
fn infer_do_until_trip(body: &[Stmt], cond: &Expr, known: &HashMap<String, Fx>) -> Option<u64> {
    let (iv, cmp, bound) = split_counted_cond(cond)?;
    let step = induction_step(body, iv)?;
    let init = *known.get(iv)?;
    // Simulate: the body runs, then the condition is tested.
    let mut i = init;
    for n in 1..=TRIP_SEARCH_CAP {
        i = i + step;
        if eval_cmp(cmp, i, bound) {
            return Some(n);
        }
    }
    None
}

/// Recognizes the counted pre-test loop `while IV cmp bound do ... IV := IV
/// ± c ...` and returns the trip count.
fn infer_while_trip(body: &[Stmt], cond: &Expr, known: &HashMap<String, Fx>) -> Option<u64> {
    let (iv, cmp, bound) = split_counted_cond(cond)?;
    let step = induction_step(body, iv)?;
    let init = *known.get(iv)?;
    let mut i = init;
    let mut n = 0u64;
    while eval_cmp(cmp, i, bound) {
        n += 1;
        if n > TRIP_SEARCH_CAP {
            return None;
        }
        i = i + step;
    }
    Some(n)
}

/// Splits `IV cmp CONST` (or `CONST cmp IV`) conditions.
fn split_counted_cond(cond: &Expr) -> Option<(&str, BinOp, Fx)> {
    let Expr::Binary(op, l, r) = cond else {
        return None;
    };
    match (&**l, &**r) {
        (Expr::Var(v), Expr::Num(n)) => Some((v.as_str(), *op, *n)),
        (Expr::Num(n), Expr::Var(v)) => {
            let swapped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                BinOp::Eq => BinOp::Eq,
                BinOp::Ne => BinOp::Ne,
                _ => return None,
            };
            Some((v.as_str(), swapped, *n))
        }
        _ => None,
    }
}

/// Finds the unique `iv := iv ± const` update in the body's top level.
/// Returns the signed step. Any other write to `iv` disqualifies the loop.
fn induction_step(body: &[Stmt], iv: &str) -> Option<Fx> {
    let mut step = None;
    for s in body {
        if let Stmt::Assign { name, expr } = s {
            if name != iv {
                continue;
            }
            let Expr::Binary(op, l, r) = expr else {
                return None;
            };
            let delta = match (&**l, &**r, op) {
                (Expr::Var(v), Expr::Num(n), BinOp::Add) if v == iv => *n,
                (Expr::Num(n), Expr::Var(v), BinOp::Add) if v == iv => *n,
                (Expr::Var(v), Expr::Num(n), BinOp::Sub) if v == iv => -*n,
                _ => return None,
            };
            if step.replace(delta).is_some() {
                return None; // written twice
            }
        } else if stmt_writes(s, iv) {
            return None;
        }
    }
    step
}

fn stmt_writes(s: &Stmt, var: &str) -> bool {
    match s {
        Stmt::Assign { name, .. } | Stmt::Recv { name, .. } => name == var,
        Stmt::TrySend { flag, .. } => flag == var,
        Stmt::TryRecv { name, flag, .. } => name == var || flag == var,
        Stmt::ArrayAssign { .. } | Stmt::Send { .. } => false,
        Stmt::DoUntil { body, .. } | Stmt::While { body, .. } => {
            body.iter().any(|s| stmt_writes(s, var))
        }
        Stmt::If {
            then_body,
            else_body,
            ..
        } => then_body
            .iter()
            .chain(else_body)
            .any(|s| stmt_writes(s, var)),
    }
}

fn eval_cmp(op: BinOp, a: Fx, b: Fx) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::{Region, ValueDef};

    const SQRT: &str = "
        program sqrt;
        input X;
        output Y;
        var I : int<4>;
        begin
          Y := 0.222222 + 0.888889 * X;
          I := 0;
          do
            Y := 0.5 * (Y + X / Y);
            I := I + 1;
          until I > 3;
        end.
    ";

    /// `X := id(Y)` copies `Y`'s input instead of renaming it, so the
    /// input keeps its name and `X` leaves the block on the copy.
    #[test]
    fn passthrough_call_copies_the_argument() {
        let cdfg = compile(
            "program t; input Y; output X;
             function id(a) = a;
             begin X := id(Y); end",
        )
        .unwrap();
        let dfg = &cdfg.block(cdfg.block_order()[0]).dfg;
        let input = dfg.inputs()[0];
        assert_eq!(dfg.value(input).name, "Y");
        let (name, out) = &dfg.outputs()[0];
        assert_eq!(name, "X");
        let ValueDef::Op(copy) = dfg.value(*out).def else {
            panic!("X is an op result");
        };
        assert_eq!(dfg.op(copy).kind, OpKind::Copy);
        assert_eq!(dfg.op(copy).operands, vec![input]);
    }

    #[test]
    fn sqrt_structure() {
        let cdfg = compile(SQRT).unwrap();
        cdfg.validate().unwrap();
        let Region::Seq(pieces) = cdfg.body() else {
            panic!("expected seq")
        };
        assert_eq!(pieces.len(), 2);
        assert!(matches!(pieces[0], Region::Block(_)));
        let Region::Loop(l) = &pieces[1] else {
            panic!("expected loop")
        };
        assert_eq!(l.kind, LoopKind::DoUntil);
        assert_eq!(l.trip_hint, Some(4), "paper: 4 Newton iterations");
    }

    #[test]
    fn sqrt_op_counts_match_paper() {
        // Paper §2: pre-loop has 3 step-taking ops (*, +, I:=0), the body 5
        // (/, +, *, +1 as add, >). Consts are free wires.
        let cdfg = compile(SQRT).unwrap();
        let blocks = cdfg.block_order();
        let count_steps = |b: hls_cdfg::BlockId| {
            cdfg.block(b)
                .dfg
                .op_ids()
                .filter(|&id| cdfg.block(b).dfg.op(id).kind != OpKind::Const)
                .count()
        };
        assert_eq!(count_steps(blocks[0]), 3, "entry: mul, add, copy");
        assert_eq!(count_steps(blocks[1]), 5, "body: div, add, mul, add, gt");
    }

    #[test]
    fn bare_constant_assign_becomes_copy() {
        let cdfg = compile("program t; var a; begin a := 0; end").unwrap();
        let b = cdfg.block_order()[0];
        let kinds: Vec<OpKind> = cdfg
            .block(b)
            .dfg
            .op_ids()
            .map(|id| cdfg.block(b).dfg.op(id).kind)
            .collect();
        assert_eq!(kinds, vec![OpKind::Const, OpKind::Copy]);
    }

    #[test]
    fn variable_reuse_within_block_shares_value() {
        // y := x + x must read x once (one block input).
        let cdfg = compile("program t; input x; output y; begin y := x + x; end").unwrap();
        let b = cdfg.block_order()[0];
        assert_eq!(cdfg.block(b).dfg.inputs().len(), 1);
    }

    #[test]
    fn sequential_assignments_chain_through_env() {
        // a := x + 1; b := a * 2 — the read of `a` uses the add's value, no
        // block input for a.
        let cdfg =
            compile("program t; input x; output b; var a; begin a := x + 1; b := a * 2; end")
                .unwrap();
        let b = cdfg.block_order()[0];
        let names: Vec<&str> = cdfg
            .block(b)
            .dfg
            .inputs()
            .iter()
            .map(|&v| cdfg.block(b).dfg.value(v).name.as_str())
            .collect();
        assert_eq!(names, vec!["x"]);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let err = compile("program t; begin q := 1; end").unwrap_err();
        assert!(err.to_string().contains("unknown variable"));
    }

    #[test]
    fn function_inlining() {
        let cdfg = compile(
            "program t; input x; output y;
             function sq(a) = a * a;
             begin y := sq(x + 1); end",
        )
        .unwrap();
        let b = cdfg.block_order()[0];
        let kinds: Vec<OpKind> = cdfg
            .block(b)
            .dfg
            .op_ids()
            .map(|id| cdfg.block(b).dfg.op(id).kind)
            .filter(|k| *k != OpKind::Const)
            .collect();
        assert_eq!(kinds, vec![OpKind::Add, OpKind::Mul]);
    }

    #[test]
    fn recursive_function_rejected() {
        let err = compile(
            "program t; input x; output y;
             function f(a) = f(a);
             begin y := f(x); end",
        )
        .unwrap_err();
        assert!(err.to_string().contains("recursive"));
    }

    #[test]
    fn while_trip_inference() {
        let cdfg = compile(
            "program t; var i : int<8>; output s; begin
               s := 0;
               i := 0;
               while i < 10 do
                 s := s + i;
                 i := i + 1;
               end;
             end",
        )
        .unwrap();
        let Region::Seq(pieces) = cdfg.body() else {
            panic!()
        };
        let Region::Loop(l) = &pieces[1] else {
            panic!("{:?}", pieces[1])
        };
        assert_eq!(l.kind, LoopKind::While);
        assert_eq!(l.trip_hint, Some(10));
        assert!(l.cond_block.is_some());
    }

    #[test]
    fn non_counted_loop_has_no_hint() {
        let cdfg = compile(
            "program t; input x; output y; var d; begin
               y := x;
               do
                 y := y >> 1;
                 d := y < 1;
               until d = 1;
             end",
        )
        .unwrap();
        let Region::Seq(pieces) = cdfg.body() else {
            panic!()
        };
        let Region::Loop(l) = &pieces[1] else {
            panic!()
        };
        assert_eq!(l.trip_hint, None);
    }

    #[test]
    fn array_access_lowers_to_memory_ops_with_threaded_tokens() {
        let cdfg = compile(
            "program t; input x; output y; array A[8]; begin
               A[0] := x;
               A[1] := x + 1;
               y := A[0] + A[1];
             end",
        )
        .unwrap();
        cdfg.validate().unwrap();
        // Init block for the token, then the access block.
        let blocks = cdfg.block_order();
        assert_eq!(cdfg.block(blocks[0]).name, "mem_init");
        let dfg = &cdfg.block(blocks[1]).dfg;
        let stores = dfg
            .op_ids()
            .filter(|&i| dfg.op(i).kind == OpKind::Store)
            .count();
        let loads = dfg
            .op_ids()
            .filter(|&i| dfg.op(i).kind == OpKind::Load)
            .count();
        assert_eq!(stores, 2);
        assert_eq!(loads, 2);
        // The second store's token is the first store's result: any valid
        // topological order keeps them serialized.
        let order = dfg.topological_order().unwrap();
        let mem_ops: Vec<_> = order
            .into_iter()
            .filter(|&i| matches!(dfg.op(i).kind, OpKind::Store | OpKind::Load))
            .collect();
        assert_eq!(mem_ops.len(), 4);
        for pair in mem_ops.windows(2) {
            // Each later access transitively depends on the earlier one.
            let mut reached = false;
            let mut work = vec![pair[0]];
            while let Some(o) = work.pop() {
                if o == pair[1] {
                    reached = true;
                    break;
                }
                work.extend(dfg.succs(o));
            }
            assert!(reached, "memory accesses must stay ordered");
        }
    }

    #[test]
    fn unknown_array_is_an_error() {
        let err = compile("program t; input x; output y; begin y := B[0]; end").unwrap_err();
        assert!(err.to_string().contains("unknown array"));
    }

    #[test]
    fn if_lowering_produces_cond_block_and_regions() {
        let cdfg = compile(
            "program t; input x; output y; begin
               if x > 0 then y := x; else y := 0 - x; end;
             end",
        )
        .unwrap();
        let Region::If(i) = cdfg.body() else {
            panic!("{:?}", cdfg.body())
        };
        assert!(i.else_region.is_some());
        let cb = &cdfg.block(i.cond_block).dfg;
        assert!(cb.outputs().iter().any(|(n, _)| n == &i.cond_var));
    }

    const PIPE: &str = "
        system pipe;
        input X;
        output Y;
        chan c : fix;
        process prod;
        var i : int<4>;
        begin
          i := 0;
          do
            send c, X + i;
            i := i + 1;
          until i > 2;
        end;
        process cons;
        var v, acc, j : int<4>;
        begin
          acc := 0;
          j := 0;
          do
            recv c, v;
            acc := acc + v;
            j := j + 1;
          until j > 2;
          Y := acc;
        end;
        end.
    ";

    #[test]
    fn system_lowering_builds_sync_blocks_and_endpoints() {
        let sys = compile_system(PIPE).unwrap();
        assert_eq!(sys.processes.len(), 2);
        let c = sys.channel("c").unwrap();
        assert_eq!((c.sender, c.receiver), (Some(0), Some(1)));
        assert_eq!(c.width, 32);
        // prod: one Send sync block writing the tx port.
        let prod = &sys.processes[0].cdfg;
        let send_blocks: Vec<_> = prod
            .block_order()
            .into_iter()
            .filter(|&b| matches!(prod.block(b).sync, Some(SyncOp::Send { .. })))
            .collect();
        assert_eq!(send_blocks.len(), 1);
        let sb = prod.block(send_blocks[0]);
        assert!(sb.dfg.outputs().iter().any(|(n, _)| n == "c__tx"));
        // cons: one Recv sync block reading the rx port.
        let cons = &sys.processes[1].cdfg;
        assert!(cons.inputs().iter().any(|(n, _)| n == "c__rx"));
        assert_eq!(sys.outputs, vec![("Y".to_string(), 1)]);
    }

    #[test]
    fn shared_assignment_becomes_atomic_mutex_block() {
        let sys = compile_system(
            "system s; output Y; shared acc;
             process a; begin acc := acc + 1; end;
             process b; var t; begin t := acc; Y := t; end;
             end.",
        )
        .unwrap();
        let a = &sys.processes[0].cdfg;
        let blocks = a.block_order();
        assert_eq!(blocks.len(), 1);
        let blk = a.block(blocks[0]);
        assert_eq!(
            blk.sync,
            Some(SyncOp::Shared {
                var: "acc".into(),
                read: true,
                write: true
            })
        );
        // Reads come from the load port, the write goes to the store port.
        assert!(a.inputs().iter().any(|(n, _)| n == "acc__ld"));
        assert!(blk.dfg.outputs().iter().any(|(n, _)| n == "acc__st"));
    }

    #[test]
    fn system_semantic_errors() {
        let two_senders = "system s; output Y; chan c;
             process a; begin send c, 1; end;
             process b; begin send c, 2; end;
             process d; var v; begin recv c, v; Y := v; end;
             end.";
        assert!(compile_system(two_senders)
            .unwrap_err()
            .to_string()
            .contains("two senders"));

        let cond_send = "system s; output Y; input X; chan c;
             process a; begin if X > 0 then send c, 1; end; end;
             process b; var v; begin recv c, v; Y := v; end;
             end.";
        assert!(compile_system(cond_send)
            .unwrap_err()
            .to_string()
            .contains("not allowed inside `if`"));

        let shared_in_cond = "system s; output Y; shared g;
             process a; begin g := 1; while g < 4 do g := g + 1; end; Y := 0; end;
             end.";
        assert!(compile_system(shared_in_cond)
            .unwrap_err()
            .to_string()
            .contains("cannot appear in"));

        let unowned_output = "system s; output Y;
             process a; var t; begin t := 1; end;
             end.";
        assert!(compile_system(unowned_output)
            .unwrap_err()
            .to_string()
            .contains("not written by any process"));

        let reserved = "system s; output Y;
             process a; var x__y; begin x__y := 1; Y := x__y; end;
             end.";
        assert!(compile_system(reserved)
            .unwrap_err()
            .to_string()
            .contains("reserved"));
    }

    #[test]
    fn int_width_applied_to_assigned_values() {
        let cdfg = compile(SQRT).unwrap();
        let body = cdfg.block_order()[1];
        let dfg = &cdfg.block(body).dfg;
        let (_, iv) = dfg.outputs().iter().find(|(n, _)| n == "I").unwrap();
        assert_eq!(dfg.value(*iv).width, 4);
    }
}
