//! Interprocedural taint analysis: attacker-controlled integers must
//! never reach a resource-commitment sink unchecked.
//!
//! ## The lattice
//!
//! Taint is the two-element lattice `{Clean, Tainted}` per value;
//! `Tainted` carries a provenance chain (source → assignment →
//! call-argument → sink steps) so `cargo xtask audit --explain` can
//! print how the value got there. Joins are monotone: a function
//! input that once became tainted stays tainted (its first-witness
//! chain is kept stable), which guarantees the fixpoint terminates —
//! the per-function state only grows, bounded by `1 + #params` bits.
//!
//! ## Sources
//!
//! Configured as [`crate::audit::EntryPattern`]s over the parsed
//! items: every *data-ish* parameter (string / integer / `Vec` typed)
//! of a matching non-test function is tainted. The committed policy
//! ([`crate::audit::AuditConfig::default`]) taints the serve protocol
//! surface, the four spec `FromStr` inputs, `.lgr` bytes, and the
//! SNAP/TSV + Matrix Market text loaders.
//!
//! ## Sinks
//!
//! * `taint-capacity` — `Vec::with_capacity`, `reserve`,
//!   `reserve_exact`, `resize`, `resize_with`, and `vec![_; n]` with
//!   a tainted size;
//! * `taint-read` — `.take(n)` with a tainted limit, or
//!   `read_to_end`/`read_to_string` on a tainted reader;
//! * `taint-loop` — a counted `for` loop (`for _ in 0..n`) over a
//!   tainted bound whose body grows a collection
//!   (`push`/`extend`/`insert`/…). Loops *iterating* materialized
//!   data are exempt: their work is proportional to bytes the
//!   attacker already paid for, not to a number they name for free.
//!
//! Pool/thread counts have no dedicated rule: `Pool::new(n)` only
//! stores `n`, and the one loop over it (the spawn loop in
//! `Pool::broadcast`) sits inside a `thread::scope` closure, whose
//! statements this pass does not scan for loops. Thread counts
//! therefore stay operator-supplied (`LGR_THREADS`, CLI flags) and
//! never come from a request.
//!
//! ## Sanitizers
//!
//! * `.min(cap)` / `.clamp(lo, cap)` — tainted only if **both** the
//!   receiver and the cap are tainted;
//! * `.len()` / `.is_empty()` / `.count()` / `.capacity()` — always
//!   clean: the length of already-materialized data is the sanctioned
//!   input-size-derived bound;
//! * a comparison-guarded early exit (`if n > cap { return Err… }`)
//!   — every variable named in the condition is clean afterwards
//!   ([`crate::parser::Stmt::Guard`]);
//! * calling a workspace method that itself comparison-guards `self`
//!   (e.g. `cfg.validate()?`) cleans the receiver variable.
//!
//! ## Conservatism and blind spots
//!
//! Unresolved receivers fan out to every same-name workspace method
//! and unresolved std calls return the join of receiver and argument
//! taint, exactly like the call graph — so taint over-approximates
//! and the ratchet absorbs false positives. Known under-approximations
//! (documented, accepted): `&mut` out-parameters of workspace calls
//! do not propagate taint back to the caller's variable; taint stored
//! into fields is tracked at whole-struct granularity only via
//! constructor returns; macro expansions are opaque (argument
//! expressions are scanned, expansions are not); and guards are
//! judged syntactically — a comparison against a uselessly-large
//! bound still counts as a guard, which is why the loaders *also*
//! carry real input-size-derived bounds, not just audit cleanliness.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::audit::EntryPattern;
use crate::callgraph::Resolver;
use crate::parser::{CallExpr, Expr, ExprNode, FnItem, Recv, Stmt};

/// Rule id for tainted capacity/size commitments.
pub const RULE_CAPACITY: &str = "taint-capacity";
/// Rule id for tainted read limits / unbounded reads.
pub const RULE_READ: &str = "taint-read";
/// Rule id for allocation-bearing loops over tainted bounds.
pub const RULE_LOOP: &str = "taint-loop";

/// Whether a rule id belongs to the taint family (zone scoping).
pub fn is_taint_rule(rule: &str) -> bool {
    rule.starts_with("taint-")
}

/// Provenance: source → … → sink, one human-readable step each.
pub type Chain = Vec<String>;

/// One tainted-sink finding.
#[derive(Debug, Clone)]
pub struct TaintSite {
    /// Index of the containing fn in the parsed item list.
    pub fn_idx: usize,
    /// 1-based line of the sink.
    pub line: usize,
    /// `taint-capacity` / `taint-read` / `taint-loop`.
    pub rule: &'static str,
    /// What the sink is.
    pub detail: String,
    /// Full provenance chain ending at the sink.
    pub chain: Chain,
}

/// Parameter types considered attacker-data when a source pattern
/// matches: sizes, strings, raw byte/edge buffers.
const DATA_TYPES: &[&str] = &[
    "str", "String", "Vec", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize",
];

/// Std calls whose result is always clean: materialized-data lengths
/// are the sanctioned input-derived bound.
const CLEAN_RETURNS: &[&str] = &["len", "is_empty", "count", "capacity"];

/// Std builder methods through which a tainted argument taints the
/// receiver variable (`edges.extend_from_slice(&tainted)`).
const MUTATORS: &[&str] = &[
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "insert",
    "append",
    "replace",
    "clone_from",
];

/// Cap on provenance chain growth; joins keep the first witness so
/// this only guards against degenerate recursion.
const MAX_CHAIN: usize = 24;

fn extend_chain(c: &Chain, step: String) -> Chain {
    let mut out = c.clone();
    if out.len() < MAX_CHAIN {
        out.push(step);
    }
    out
}

/// Which input slot of a callee a propagation lands in.
#[derive(Clone, Copy)]
enum Input {
    SelfParam,
    Param(usize),
}

/// Per-function fixpoint state.
struct FnState {
    in_self: Option<Chain>,
    in_params: Vec<Option<Chain>>,
    ret: Option<Chain>,
    /// Body comparison-guards `self`: calling it sanitizes the
    /// receiver (`cfg.validate()?` pattern).
    guards_self: bool,
    sites: Vec<TaintSite>,
}

/// Everything one taint run produces.
pub struct TaintOutcome {
    /// All tainted-sink findings, deduped and sorted.
    pub sites: Vec<TaintSite>,
    /// Summary lines for the report.
    pub info: Vec<String>,
}

/// Runs the interprocedural fixpoint over the parsed items.
pub fn run(fns: &[FnItem], resolver: &Resolver, sources: &[EntryPattern]) -> TaintOutcome {
    let mut st: Vec<FnState> = fns
        .iter()
        .map(|f| FnState {
            in_self: None,
            in_params: vec![None; f.params.len()],
            ret: None,
            guards_self: f.stmts.iter().any(|s| match s {
                Stmt::Guard { vars, .. } => vars.iter().any(|v| v == "self"),
                _ => false,
            }),
            sites: Vec::new(),
        })
        .collect();

    // Seed sources: data-ish params of matching non-test fns.
    let mut source_count = 0usize;
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let matched = sources.iter().any(|e| {
            f.file.starts_with(&e.file_prefix) && e.fn_name.as_deref().is_none_or(|n| n == f.name)
        });
        if !matched {
            continue;
        }
        let mut any = false;
        for (pi, (pname, ptype)) in f.params.iter().enumerate() {
            let data_ish = ptype.as_deref().is_some_and(|t| DATA_TYPES.contains(&t));
            if data_ish {
                st[i].in_params[pi] = Some(vec![format!(
                    "source: `{pname}` of {} ({}:{}) is attacker-controlled",
                    f.display_name(),
                    f.file,
                    f.line
                )]);
                any = true;
            }
        }
        if any {
            source_count += 1;
        }
    }

    // Worklist fixpoint: every non-test fn once, then re-runs driven
    // by input/return changes.
    let mut callers: Vec<HashSet<usize>> = vec![HashSet::new(); fns.len()];
    let mut queue: VecDeque<usize> = (0..fns.len()).filter(|&i| !fns[i].is_test).collect();
    let mut queued: Vec<bool> = fns.iter().map(|f| !f.is_test).collect();
    let mut rounds = 0usize;
    while let Some(i) = queue.pop_front() {
        queued[i] = false;
        rounds += 1;
        let (sites, ret, pushes, called) = interpret(i, fns, resolver, &st);
        st[i].sites = sites;
        for &t in &called {
            callers[t].insert(i);
        }
        let enqueue = |t: usize, queue: &mut VecDeque<usize>, queued: &mut Vec<bool>| {
            if !queued[t] && !fns[t].is_test {
                queued[t] = true;
                queue.push_back(t);
            }
        };
        if ret.is_some() && st[i].ret.is_none() {
            st[i].ret = ret;
            let cs: Vec<usize> = callers[i].iter().copied().collect();
            for c in cs {
                enqueue(c, &mut queue, &mut queued);
            }
        }
        for (t, input, chain) in pushes {
            let slot = match input {
                Input::SelfParam => &mut st[t].in_self,
                Input::Param(p) => &mut st[t].in_params[p],
            };
            if slot.is_none() {
                *slot = Some(chain);
                enqueue(t, &mut queue, &mut queued);
            }
        }
    }

    let mut sites: Vec<TaintSite> = Vec::new();
    let mut seen: HashSet<(usize, usize, &'static str)> = HashSet::new();
    let mut tainted_fns = 0usize;
    for s in &st {
        if s.in_self.is_some() || s.in_params.iter().any(Option::is_some) {
            tainted_fns += 1;
        }
        for site in &s.sites {
            if seen.insert((site.fn_idx, site.line, site.rule)) {
                sites.push(site.clone());
            }
        }
    }
    sites.sort_by(|a, b| {
        (&fns[a.fn_idx].file, a.line, a.rule).cmp(&(&fns[b.fn_idx].file, b.line, b.rule))
    });

    let info = vec![format!(
        "taint: {source_count} source fns, {tainted_fns} fns carry tainted inputs, {} tainted \
         sink(s) ({} fixpoint passes)",
        sites.len(),
        rounds
    )];
    TaintOutcome { sites, info }
}

/// One intraprocedural pass over `fns[i]` under its current input
/// taint. Returns (sites, return taint, input propagations to
/// callees, every workspace callee touched).
#[allow(clippy::type_complexity)]
fn interpret(
    i: usize,
    fns: &[FnItem],
    resolver: &Resolver,
    st: &[FnState],
) -> (
    Vec<TaintSite>,
    Option<Chain>,
    Vec<(usize, Input, Chain)>,
    Vec<usize>,
) {
    let f = &fns[i];
    let mut ev = Evaluator {
        i,
        f,
        fns,
        resolver,
        st,
        env: HashMap::new(),
        sites: Vec::new(),
        pushes: Vec::new(),
        called: Vec::new(),
    };
    if let Some(c) = &st[i].in_self {
        ev.env.insert("self".to_owned(), c.clone());
    }
    for (pi, (pname, _)) in f.params.iter().enumerate() {
        if let Some(c) = &st[i].in_params[pi] {
            ev.env.insert(pname.clone(), c.clone());
        }
    }

    let mut ret: Option<Chain> = st[i].ret.clone();
    for stmt in &f.stmts {
        match stmt {
            Stmt::Let { names, expr, line } => {
                let t = ev.eval(expr);
                for n in names {
                    match &t {
                        Some(c) => {
                            let step = format!("{}:{line} flows into `{n}`", f.file);
                            ev.env.insert(n.clone(), extend_chain(c, step));
                        }
                        None => {
                            ev.env.remove(n);
                        }
                    }
                }
            }
            Stmt::Assign { name, expr, line } => {
                // Weak update: an assignment may sit in a branch, so
                // a clean RHS never kills existing taint.
                if let Some(c) = ev.eval(expr) {
                    let step = format!("{}:{line} assigned to `{name}`", f.file);
                    ev.env.insert(name.clone(), extend_chain(&c, step));
                }
            }
            Stmt::Discard(expr) => {
                ev.eval(expr);
            }
            Stmt::Guard { vars, .. } => {
                for v in vars {
                    ev.env.remove(v);
                }
            }
            Stmt::Return { expr, .. } => {
                if ret.is_none() {
                    if let Some(c) = ev.eval(expr) {
                        ret = Some(extend_chain(
                            &c,
                            format!("returned from {} ({})", f.display_name(), f.file),
                        ));
                    }
                } else {
                    ev.eval(expr);
                }
            }
            Stmt::Loop {
                bound,
                allocates,
                counted,
                line,
            } => {
                let t = ev.eval(bound);
                // Only counted (`for _ in 0..n`) loops gate: a loop
                // over materialized data does work proportional to
                // bytes the attacker already paid for; a counted loop
                // commits resources proportional to a number they
                // name for free.
                if *allocates && *counted {
                    if let Some(c) = t {
                        ev.site(
                            RULE_LOOP,
                            *line,
                            "allocation-bearing counted loop over attacker-influenced bound"
                                .to_owned(),
                            c,
                        );
                    }
                }
            }
        }
    }
    (ev.sites, ret, ev.pushes, ev.called)
}

/// Expression evaluator for one pass of one function.
struct Evaluator<'a> {
    i: usize,
    f: &'a FnItem,
    fns: &'a [FnItem],
    resolver: &'a Resolver,
    st: &'a [FnState],
    env: HashMap<String, Chain>,
    sites: Vec<TaintSite>,
    pushes: Vec<(usize, Input, Chain)>,
    called: Vec<usize>,
}

impl Evaluator<'_> {
    fn site(&mut self, rule: &'static str, line: usize, detail: String, chain: Chain) {
        let chain = extend_chain(&chain, format!("sink: {detail} ({}:{line})", self.f.file));
        self.sites.push(TaintSite {
            fn_idx: self.i,
            line,
            rule,
            detail,
            chain,
        });
    }

    /// Joins node taints left to right, keeping the first witness;
    /// every node is still evaluated for its side effects.
    fn eval(&mut self, e: &Expr) -> Option<Chain> {
        let mut t: Option<Chain> = None;
        for n in &e.nodes {
            let nt = match n {
                ExprNode::Ident(w) => self.env.get(w).cloned(),
                ExprNode::Group(g) => self.eval(g),
                ExprNode::Call(c) => self.eval_call(c),
            };
            if t.is_none() {
                t = nt;
            }
        }
        t
    }

    fn eval_call(&mut self, c: &CallExpr) -> Option<Chain> {
        let recv_t = match &c.receiver {
            Some(r) => self.eval(r),
            None => None,
        };
        let arg_ts: Vec<Option<Chain>> = c.args.iter().map(|a| self.eval(a)).collect();

        if c.name == "__vec_len" {
            if let Some(ch) = arg_ts.get(1).cloned().flatten() {
                self.site(
                    RULE_CAPACITY,
                    c.line,
                    "vec![_; n] sized by attacker-influenced value".to_owned(),
                    ch,
                );
            }
            return arg_ts.first().cloned().flatten();
        }

        // Sanitizers pre-empt workspace resolution: a method *named*
        // `len`/`min`/… has length/cap semantics whether it resolves
        // to std or to a same-name workspace method by fan-out —
        // otherwise `bytes.len()` fans out to some workspace `len`
        // whose return is tainted and the sanctioned bound leaks.
        match c.name.as_str() {
            "min" | "clamp" => {
                let cap_t = arg_ts.last().cloned().flatten();
                return match (recv_t, cap_t) {
                    (Some(r), Some(_)) => Some(extend_chain(
                        &r,
                        format!(
                            "{}:{} `.{}(..)` against an attacker-influenced cap",
                            self.f.file, c.line, c.name
                        ),
                    )),
                    _ => None,
                };
            }
            n if CLEAN_RETURNS.contains(&n) => return None,
            _ => {}
        }

        let targets: Vec<usize> = self
            .resolver
            .targets(self.f, &c.name, &c.recv, c.turbofish.as_deref())
            .into_iter()
            .filter(|&t| !self.fns[t].is_test)
            .collect();
        if !targets.is_empty() {
            return self.eval_workspace_call(c, &targets, recv_t, &arg_ts);
        }
        self.eval_std_call(c, recv_t, &arg_ts)
    }

    /// A resolved workspace call: push argument/receiver taint into
    /// every target's input slots and join the targets' return taint.
    fn eval_workspace_call(
        &mut self,
        c: &CallExpr,
        targets: &[usize],
        recv_t: Option<Chain>,
        arg_ts: &[Option<Chain>],
    ) -> Option<Chain> {
        let mut ret: Option<Chain> = None;
        for &t in targets {
            self.called.push(t);
            let callee = &self.fns[t];
            if let Some(rc) = &recv_t {
                let step = format!(
                    "{}:{} receiver of `{}`",
                    self.f.file,
                    c.line,
                    callee.display_name()
                );
                self.pushes
                    .push((t, Input::SelfParam, extend_chain(rc, step)));
            }
            for (ai, at) in arg_ts.iter().enumerate() {
                if let Some(ac) = at {
                    if ai < callee.params.len() {
                        let step = format!(
                            "{}:{} argument `{}` of `{}`",
                            self.f.file,
                            c.line,
                            callee.params[ai].0,
                            callee.display_name()
                        );
                        self.pushes
                            .push((t, Input::Param(ai), extend_chain(ac, step)));
                    }
                }
            }
            if ret.is_none() {
                if let Some(rc) = &self.st[t].ret {
                    ret = Some(extend_chain(
                        rc,
                        format!(
                            "{}:{} returned by `{}`",
                            self.f.file,
                            c.line,
                            callee.display_name()
                        ),
                    ));
                }
            }
        }
        // Sanitizer: a callee that comparison-guards `self` validates
        // its receiver (`cfg.validate()?`).
        if let Recv::Var(v) = &c.recv {
            if targets.iter().all(|&t| self.st[t].guards_self) {
                self.env.remove(v);
            }
        }
        ret
    }

    /// An unresolved (std/builtin) call: sanitizer and sink special
    /// cases, otherwise the conservative join of receiver + argument
    /// taint, plus the builder-mutation rule.
    fn eval_std_call(
        &mut self,
        c: &CallExpr,
        recv_t: Option<Chain>,
        arg_ts: &[Option<Chain>],
    ) -> Option<Chain> {
        match c.name.as_str() {
            "with_capacity" | "reserve" | "reserve_exact" | "resize" | "resize_with" => {
                if let Some(ch) = arg_ts.first().cloned().flatten() {
                    self.site(
                        RULE_CAPACITY,
                        c.line,
                        format!("`{}(..)` sized by attacker-influenced value", c.name),
                        ch,
                    );
                }
                recv_t
            }
            "take" => {
                if let Some(ch) = arg_ts.first().cloned().flatten() {
                    self.site(
                        RULE_READ,
                        c.line,
                        "`.take(n)` read limit is attacker-influenced".to_owned(),
                        ch,
                    );
                }
                recv_t
            }
            "read_to_end" | "read_to_string" => {
                if let Some(ch) = recv_t {
                    self.site(
                        RULE_READ,
                        c.line,
                        format!("`.{}(..)` on an attacker-influenced reader", c.name),
                        ch,
                    );
                }
                None
            }
            _ => {
                let mut t = recv_t;
                let first_arg_t = arg_ts.iter().flatten().next().cloned();
                if t.is_none() {
                    t = first_arg_t.clone();
                }
                // A call through a closure variable: `f(i)` where the
                // local `f` captured tainted data.
                if c.recv == Recv::None && t.is_none() {
                    t = self.env.get(&c.name).cloned();
                }
                // Builder mutation: `edges.extend(tainted)` taints
                // `edges`.
                if let Recv::Var(v) = &c.recv {
                    if MUTATORS.contains(&c.name.as_str()) {
                        if let Some(ac) = &first_arg_t {
                            let step =
                                format!("{}:{} `.{}(..)` into `{v}`", self.f.file, c.line, c.name);
                            self.env.insert(v.clone(), extend_chain(ac, step));
                        }
                    }
                }
                t
            }
        }
    }
}
