//! Parametrized policy scripts (§5.2, Fig. 2).
//!
//! The reincarnation server executes a small script after each failure to
//! decide how to recover. The paper uses shell scripts; this module
//! provides an equivalent interpreted language with the same inputs —
//! the failed component, the defect class ("reason", §5.1), the current
//! failure count ("repetition"), and free-form script parameters — and the
//! same vocabulary: conditional binary-exponential backoff, restart,
//! failure alerts, dependent-component restarts, giving up, and rebooting
//! the whole system.
//!
//! The generic script of Fig. 2 translates to:
//!
//! ```text
//! # generic recovery script (Fig. 2)
//! if reason != update then
//!     sleep backoff(1s)
//! end
//! restart
//! if param(1) != "" then
//!     alert "failure: $component reason=$reason count=$repetition -> $1"
//! end
//! ```
//!
//! The language exists solely for policy-driven recovery, so the whole
//! module is recovery code in Fig. 9's count:
//! analyze:recovery

use std::fmt;

use phoenix_simcore::time::SimDuration;

/// Defect classes, numbered as in §5.1.
pub mod reason {
    /// 1: process exit or panic.
    pub const EXIT: u8 = 1;
    /// 2: crashed by CPU or MMU exception.
    pub const EXCEPTION: u8 = 2;
    /// 3: killed by user.
    pub const KILLED: u8 = 3;
    /// 4: heartbeat message missing.
    pub const HEARTBEAT: u8 = 4;
    /// 5: complaint by another component.
    pub const COMPLAINT: u8 = 5;
    /// 6: dynamic update by user.
    pub const UPDATE: u8 = 6;

    /// Human-readable name of a defect class: the last segment of its
    /// counter.
    pub fn name(r: u8) -> &'static str {
        &counter(r)["rs.defect.".len()..]
    }

    /// The `rs.defect.*` counter of a defect class.
    pub fn counter(r: u8) -> &'static str {
        match r {
            EXIT => "rs.defect.exit",
            EXCEPTION => "rs.defect.exception",
            KILLED => "rs.defect.killed",
            HEARTBEAT => "rs.defect.heartbeat",
            COMPLAINT => "rs.defect.complaint",
            UPDATE => "rs.defect.update",
            _ => "rs.defect.unknown",
        }
    }
}

/// Inputs the reincarnation server passes to the script (§5.2: "which
/// component failed, the kind of failure, the current failure count, and
/// the parameters passed along with the script").
#[derive(Debug, Clone)]
pub struct PolicyInput {
    /// Stable name of the failed component.
    pub component: String,
    /// Defect class 1–6.
    pub reason: u8,
    /// Current failure count (1 on the first failure).
    pub repetition: u32,
    /// Script parameters (`$1`, `$2`, ...).
    pub params: Vec<String>,
    /// The service's `backoff()` base when an adapt rule binds it;
    /// `None` = the script's literal base.
    pub backoff_base: Option<SimDuration>,
    /// The service's cap on backoff doublings; `None` = no cap.
    pub backoff_cap: Option<u32>,
}

/// The tunable recovery parameters of one guarded service.
///
/// Every guarded service carries one table, built from
/// [`PolicyParams::BASELINE`] by the `ServiceConfig` builders; the
/// `adapt` controllers step it at runtime, so each parameter has exactly
/// one home whether it is fixed or self-tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyParams {
    /// Heartbeat ping period, when the service is pinged at all.
    pub heartbeat_period: SimDuration,
    /// Consecutive missed heartbeats before a class-4 defect.
    pub heartbeat_misses: u32,
    /// Base delay for `backoff()` in policy scripts.
    pub backoff_base: SimDuration,
    /// Maximum number of backoff doublings.
    pub backoff_cap: u32,
    /// Restarts allowed inside one budget window before escalation.
    pub restart_budget: u32,
    /// Width of the sliding restart-budget window.
    pub budget_window: SimDuration,
    /// Complaints against the service inside the arbitration window that
    /// convict it on volume alone.
    pub quorum_complaints: u32,
}

impl PolicyParams {
    /// The hand-tuned defaults every service starts from.
    pub const BASELINE: PolicyParams = PolicyParams {
        heartbeat_period: SimDuration::from_secs(1),
        heartbeat_misses: 3,
        backoff_base: SimDuration::from_secs(1),
        backoff_cap: 7,
        restart_budget: 10,
        budget_window: SimDuration::from_secs(30),
        quorum_complaints: 3,
    };
}

/// Parameters an `adapt` rule may bind to a closed-loop controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptParam {
    /// [`PolicyParams::heartbeat_period`] (duration-typed).
    HeartbeatPeriod,
    /// [`PolicyParams::backoff_base`] (duration-typed).
    BackoffBase,
    /// [`PolicyParams::backoff_cap`] (integer-typed).
    BackoffCap,
    /// [`PolicyParams::restart_budget`] (integer-typed).
    RestartBudget,
    /// [`PolicyParams::budget_window`] (duration-typed).
    BudgetWindow,
    /// [`PolicyParams::quorum_complaints`] (integer-typed).
    QuorumComplaints,
}

impl AdaptParam {
    /// Every adaptable parameter, in gauge-emission order.
    pub const ALL: [AdaptParam; 6] = [
        AdaptParam::HeartbeatPeriod,
        AdaptParam::BackoffBase,
        AdaptParam::BackoffCap,
        AdaptParam::RestartBudget,
        AdaptParam::BudgetWindow,
        AdaptParam::QuorumComplaints,
    ];

    /// Script spelling of the parameter: the last segment of its
    /// trajectory series.
    pub fn name(self) -> &'static str {
        &self.trace()["rs.adapt.trace.".len()..]
    }

    /// Obs gauge name carrying `service`'s live value (µs for
    /// durations).
    pub fn gauge(self, service: &str) -> String {
        let unit = if self.is_duration() { "_us" } else { "" };
        format!("rs.adapt.{service}.{}{unit}", self.name())
    }

    /// Obs series of the value each audit sweep left the parameter at
    /// (µs for durations).
    pub fn trace(self) -> &'static str {
        match self {
            AdaptParam::HeartbeatPeriod => "rs.adapt.trace.heartbeat_period",
            AdaptParam::BackoffBase => "rs.adapt.trace.backoff_base",
            AdaptParam::BackoffCap => "rs.adapt.trace.backoff_cap",
            AdaptParam::RestartBudget => "rs.adapt.trace.restart_budget",
            AdaptParam::BudgetWindow => "rs.adapt.trace.budget_window",
            AdaptParam::QuorumComplaints => "rs.adapt.trace.quorum_complaints",
        }
    }

    /// Whether values for this parameter are durations (vs bare ints).
    pub fn is_duration(self) -> bool {
        matches!(
            self,
            AdaptParam::HeartbeatPeriod | AdaptParam::BackoffBase | AdaptParam::BudgetWindow
        )
    }

    fn from_token(tok: &str) -> Option<Self> {
        AdaptParam::ALL.into_iter().find(|p| p.name() == tok)
    }

    /// Reads the parameter's canonical value (µs for durations).
    pub fn read(self, p: &PolicyParams) -> u64 {
        match self {
            AdaptParam::HeartbeatPeriod => p.heartbeat_period.as_micros(),
            AdaptParam::BackoffBase => p.backoff_base.as_micros(),
            AdaptParam::BackoffCap => u64::from(p.backoff_cap),
            AdaptParam::RestartBudget => u64::from(p.restart_budget),
            AdaptParam::BudgetWindow => p.budget_window.as_micros(),
            AdaptParam::QuorumComplaints => u64::from(p.quorum_complaints),
        }
    }

    /// Writes the parameter from its canonical value.
    pub fn write(self, p: &mut PolicyParams, v: u64) {
        match self {
            AdaptParam::HeartbeatPeriod => p.heartbeat_period = SimDuration::from_micros(v),
            AdaptParam::BackoffBase => p.backoff_base = SimDuration::from_micros(v),
            AdaptParam::BackoffCap => p.backoff_cap = v as u32,
            AdaptParam::RestartBudget => p.restart_budget = v as u32,
            AdaptParam::BudgetWindow => p.budget_window = SimDuration::from_micros(v),
            AdaptParam::QuorumComplaints => p.quorum_complaints = v as u32,
        }
    }
}

/// Observed signals an `adapt` rule may condition on. All are sampled by
/// the reincarnation server over its own sliding window, from the same
/// event streams the PR 3 phase histograms fold at campaign end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptSignal {
    /// Defects handled inside the sampling window.
    Failures,
    /// Complaints filed inside the sampling window.
    Complaints,
    /// p95 of recent recovery times, in milliseconds.
    MttrP95Ms,
}

impl AdaptSignal {
    /// Script spelling of the signal.
    pub fn name(self) -> &'static str {
        match self {
            AdaptSignal::Failures => "failures",
            AdaptSignal::Complaints => "complaints",
            AdaptSignal::MttrP95Ms => "mttr_p95",
        }
    }

    fn from_token(tok: &str) -> Option<Self> {
        [
            AdaptSignal::Failures,
            AdaptSignal::Complaints,
            AdaptSignal::MttrP95Ms,
        ]
        .into_iter()
        .find(|s| s.name() == tok)
    }
}

/// What a controller does to its parameter on each evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdaptAction {
    Halve,
    Double,
    Hold,
    Add(u64),
    Sub(u64),
}

/// One parsed `adapt` rule: a deterministic bang-bang controller binding
/// a [`PolicyParams`] field to an observed signal, clamped to a band.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptRule {
    /// Parameter this controller drives.
    pub param: AdaptParam,
    /// Signal it conditions on.
    pub signal: AdaptSignal,
    op: CmpOp,
    /// Signal threshold (counts; milliseconds for `mttr_p95`).
    pub threshold: i64,
    hot: AdaptAction,
    cold: AdaptAction,
    lo: u64,
    hi: u64,
    /// 1-based source line of the rule, for diagnostics.
    pub line: usize,
}

impl AdaptRule {
    /// The declared safe band, in canonical units (µs for durations).
    pub fn clamp_band(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Runs one controller step: compares the sampled signal against the
    /// threshold, applies the hot or cold action to the bound parameter,
    /// and clamps the result into the declared band. Returns the new
    /// canonical value when the parameter actually changed.
    // analyze:recovery-root
    pub fn step(&self, sample: i64, params: &mut PolicyParams) -> Option<u64> {
        let triggered =
            PolicyScript::compare(&Value::Int(sample), self.op, &Value::Int(self.threshold));
        let action = if triggered { self.hot } else { self.cold };
        let cur = self.param.read(params);
        let next = match action {
            AdaptAction::Hold => cur,
            AdaptAction::Halve => cur / 2,
            AdaptAction::Double => cur.saturating_mul(2),
            AdaptAction::Add(v) => cur.saturating_add(v),
            AdaptAction::Sub(v) => cur.saturating_sub(v),
        }
        .clamp(self.lo, self.hi);
        if next == cur {
            return None;
        }
        self.param.write(params, next);
        Some(next)
    }
}

/// What the script decided.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyDecision {
    /// Restart the component (after `delay`).
    pub restart: bool,
    /// Accumulated `sleep` time before restarting.
    pub delay: SimDuration,
    /// Program version to restart (None = latest registered).
    pub version: Option<u32>,
    /// Failure alerts to deliver (the `mail` of Fig. 2).
    pub alerts: Vec<String>,
    /// Log lines for the administrator.
    pub logs: Vec<String>,
    /// Other components whose restart the policy requests (e.g. restart
    /// the DHCP client after a network-server failure, §5.2).
    pub restart_components: Vec<String>,
    /// Reboot the entire system ("clearly better than leaving the system
    /// in an unusable state").
    pub reboot: bool,
    /// The policy explicitly gave up on this component.
    pub gave_up: bool,
}

/// A script parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Int(i64),
    Dur(SimDuration),
    Str(String),
    Reason,
    Repetition,
    Param(usize),
    Backoff(SimDuration),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    If {
        lhs: Expr,
        op: CmpOp,
        rhs: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    Sleep(Expr),
    Restart {
        version: Option<u32>,
    },
    GiveUp,
    Alert(String),
    Log(String),
    RestartComponent(String),
    Reboot,
}

/// A parsed, reusable policy script.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyScript {
    body: Vec<Stmt>,
    adapt: Vec<AdaptRule>,
}

/// The generic recovery script of Fig. 2: exponential backoff except for
/// dynamic updates, restart, optional alert when `$1` is set.
pub const GENERIC_POLICY: &str = r#"
# generic recovery script (Fig. 2)
if reason != update then
    sleep backoff(1s)
end
restart
if param(1) != "" then
    alert "failure: $component reason=$reason count=$repetition -> $1"
end
"#;

fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_str {
            if c == '"' {
                out.push(format!("\"{cur}"));
                cur.clear();
                in_str = false;
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '#' => break,
                '"' => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                    in_str = true;
                }
                c if c.is_whitespace() => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                // Make parens and comparison glyphs self-delimiting so
                // `backoff(1s)` and `reason!=update` both tokenize.
                '(' | ')' => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                    out.push(c.to_string());
                }
                '!' | '=' | '<' | '>' => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                    cur.push(c);
                    if let Some('=') = chars.peek() {
                        cur.push('=');
                        chars.next();
                    }
                    out.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
    }
    if in_str {
        return Err("unterminated string".to_string());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

fn parse_duration(tok: &str) -> Option<SimDuration> {
    let (num, unit) = tok
        .find(|c: char| c.is_ascii_alphabetic())
        .map(|i| tok.split_at(i))?;
    let n: u64 = num.parse().ok()?;
    match unit {
        "us" => Some(SimDuration::from_micros(n)),
        "ms" => Some(SimDuration::from_millis(n)),
        "s" => Some(SimDuration::from_secs(n)),
        "m" => Some(SimDuration::from_secs(n * 60)),
        _ => None,
    }
}

struct Parser {
    lines: Vec<(usize, Vec<String>)>,
    pos: usize,
    adapt: Vec<AdaptRule>,
}

impl Parser {
    fn err(&self, line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            message: message.into(),
        }
    }

    fn parse_expr(&self, toks: &[String], line: usize) -> Result<(Expr, usize), ParseError> {
        let tok = toks
            .first()
            .ok_or_else(|| self.err(line, "expected expression"))?;
        if let Some(s) = tok.strip_prefix('"') {
            return Ok((Expr::Str(s.to_string()), 1));
        }
        if let Ok(n) = tok.parse::<i64>() {
            return Ok((Expr::Int(n), 1));
        }
        if let Some(d) = parse_duration(tok) {
            return Ok((Expr::Dur(d), 1));
        }
        match tok.as_str() {
            "reason" => Ok((Expr::Reason, 1)),
            "repetition" => Ok((Expr::Repetition, 1)),
            "exit" => Ok((Expr::Int(i64::from(reason::EXIT)), 1)),
            "exception" => Ok((Expr::Int(i64::from(reason::EXCEPTION)), 1)),
            "killed" => Ok((Expr::Int(i64::from(reason::KILLED)), 1)),
            "heartbeat" => Ok((Expr::Int(i64::from(reason::HEARTBEAT)), 1)),
            "complaint" => Ok((Expr::Int(i64::from(reason::COMPLAINT)), 1)),
            "update" => Ok((Expr::Int(i64::from(reason::UPDATE)), 1)),
            "param" | "backoff" => {
                if toks.len() < 4 || toks[1] != "(" || toks[3] != ")" {
                    return Err(
                        self.err(line, format!("{tok} requires one parenthesized argument"))
                    );
                }
                let arg = &toks[2];
                if tok == "param" {
                    let n: usize = arg
                        .parse()
                        .map_err(|_| self.err(line, "param() takes an integer"))?;
                    if n == 0 {
                        return Err(self.err(line, "param() indices start at 1"));
                    }
                    Ok((Expr::Param(n), 4))
                } else {
                    let d = parse_duration(arg)
                        .ok_or_else(|| self.err(line, "backoff() takes a duration, e.g. 1s"))?;
                    Ok((Expr::Backoff(d), 4))
                }
            }
            _ => Err(self.err(line, format!("unknown expression `{tok}`"))),
        }
    }

    fn parse_block(&mut self, terminators: &[&str]) -> Result<(Vec<Stmt>, String), ParseError> {
        let mut body = Vec::new();
        while self.pos < self.lines.len() {
            let (line_no, toks) = self.lines[self.pos].clone();
            if toks.is_empty() {
                self.pos += 1;
                continue;
            }
            let head = toks[0].as_str();
            if terminators.contains(&head) {
                self.pos += 1;
                return Ok((body, head.to_string()));
            }
            self.pos += 1;
            match head {
                "if" => {
                    let (lhs, used) = self.parse_expr(&toks[1..], line_no)?;
                    let rest = &toks[1 + used..];
                    let op = match rest.first().map(String::as_str) {
                        Some("==") => CmpOp::Eq,
                        Some("!=") => CmpOp::Ne,
                        Some("<") => CmpOp::Lt,
                        Some("<=") => CmpOp::Le,
                        Some(">") => CmpOp::Gt,
                        Some(">=") => CmpOp::Ge,
                        other => {
                            return Err(self.err(
                                line_no,
                                format!("expected comparison operator, got {other:?}"),
                            ))
                        }
                    };
                    let (rhs, used2) = self.parse_expr(&rest[1..], line_no)?;
                    let tail = &rest[1 + used2..];
                    if tail != ["then"] {
                        return Err(self.err(line_no, "expected `then` at end of if"));
                    }
                    let (then_body, term) = self.parse_block(&["else", "end"])?;
                    let else_body = if term == "else" {
                        let (e, term2) = self.parse_block(&["end"])?;
                        debug_assert_eq!(term2, "end");
                        e
                    } else {
                        Vec::new()
                    };
                    body.push(Stmt::If {
                        lhs,
                        op,
                        rhs,
                        then_body,
                        else_body,
                    });
                }
                "sleep" => {
                    let (e, used) = self.parse_expr(&toks[1..], line_no)?;
                    if 1 + used != toks.len() {
                        return Err(self.err(line_no, "trailing tokens after sleep"));
                    }
                    body.push(Stmt::Sleep(e));
                }
                "restart" => {
                    let version = match toks.get(1).map(String::as_str) {
                        None => None,
                        Some("version") => {
                            if toks.get(2).map(String::as_str) != Some("=") {
                                return Err(self.err(line_no, "expected `version = <n>`"));
                            }
                            let v: u32 = toks
                                .get(3)
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| self.err(line_no, "bad version number"))?;
                            Some(v)
                        }
                        Some(other) => {
                            return Err(
                                self.err(line_no, format!("unexpected `{other}` after restart"))
                            )
                        }
                    };
                    body.push(Stmt::Restart { version });
                }
                "give-up" => body.push(Stmt::GiveUp),
                "reboot" => body.push(Stmt::Reboot),
                "alert" | "log" => {
                    let s = toks
                        .get(1)
                        .and_then(|t| t.strip_prefix('"'))
                        .ok_or_else(|| {
                            self.err(line_no, format!("{head} takes a quoted string"))
                        })?;
                    if head == "alert" {
                        body.push(Stmt::Alert(s.to_string()));
                    } else {
                        body.push(Stmt::Log(s.to_string()));
                    }
                }
                "restart-component" => {
                    let name = toks
                        .get(1)
                        .ok_or_else(|| self.err(line_no, "restart-component takes a name"))?;
                    body.push(Stmt::RestartComponent(name.clone()));
                }
                "adapt" => {
                    // Controllers run on the audit sweep, not per-failure,
                    // so a conditional rule would be meaningless: the `if`
                    // inputs (reason, repetition) don't exist at that time.
                    if !terminators.is_empty() {
                        return Err(self.err(
                            line_no,
                            "`adapt` rules must be at top level, not inside `if`",
                        ));
                    }
                    let rule = self.parse_adapt(&toks[1..], line_no)?;
                    self.adapt.push(rule);
                }
                other => return Err(self.err(line_no, format!("unknown statement `{other}`"))),
            }
        }
        if terminators.is_empty() {
            Ok((body, String::new()))
        } else {
            Err(self.err(
                self.lines.last().map_or(0, |(n, _)| *n),
                format!("missing `{}`", terminators.join("`/`")),
            ))
        }
    }

    /// Parses the tail of one `adapt` line:
    /// `<param> when <signal> <cmp> <int> <action> else <action> clamp <lo> <hi>`
    /// where an action is `halve` | `double` | `hold` | `add <val>` |
    /// `sub <val>` and every value is typed to the parameter (durations
    /// for duration params, integers otherwise).
    fn parse_adapt(&self, toks: &[String], line: usize) -> Result<AdaptRule, ParseError> {
        let param_tok = toks
            .first()
            .ok_or_else(|| self.err(line, "adapt takes a parameter name"))?;
        let param = AdaptParam::from_token(param_tok).ok_or_else(|| {
            self.err(
                line,
                format!(
                    "unknown adapt parameter `{param_tok}` (expected one of: {})",
                    AdaptParam::ALL.map(AdaptParam::name).join(", ")
                ),
            )
        })?;
        if toks.get(1).map(String::as_str) != Some("when") {
            return Err(self.err(line, "expected `when` after the adapt parameter"));
        }
        let signal_tok = toks
            .get(2)
            .ok_or_else(|| self.err(line, "expected a signal after `when`"))?;
        let signal = AdaptSignal::from_token(signal_tok).ok_or_else(|| {
            self.err(
                line,
                format!(
                    "unknown adapt signal `{signal_tok}` (expected failures, complaints, or mttr_p95)"
                ),
            )
        })?;
        let op = match toks.get(3).map(String::as_str) {
            Some("==") => CmpOp::Eq,
            Some("!=") => CmpOp::Ne,
            Some("<") => CmpOp::Lt,
            Some("<=") => CmpOp::Le,
            Some(">") => CmpOp::Gt,
            Some(">=") => CmpOp::Ge,
            other => {
                return Err(self.err(
                    line,
                    format!("expected comparison operator after the signal, got {other:?}"),
                ))
            }
        };
        let threshold: i64 = toks
            .get(4)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.err(line, "adapt threshold must be an integer"))?;
        let (hot, used) = self.parse_adapt_action(param, &toks[5..], line)?;
        let mut i = 5 + used;
        if toks.get(i).map(String::as_str) != Some("else") {
            return Err(self.err(line, "expected `else` between the hot and cold actions"));
        }
        let (cold, used2) = self.parse_adapt_action(param, &toks[i + 1..], line)?;
        i += 1 + used2;
        if toks.get(i).map(String::as_str) != Some("clamp") {
            return Err(self.err(line, "expected `clamp <lo> <hi>` to end the adapt rule"));
        }
        let lo = self.parse_adapt_value(param, toks.get(i + 1), line)?;
        let hi = self.parse_adapt_value(param, toks.get(i + 2), line)?;
        if i + 3 != toks.len() {
            return Err(self.err(line, "trailing tokens after the clamp band"));
        }
        if lo == 0 {
            return Err(self.err(line, "clamp lower bound must be positive"));
        }
        if lo > hi {
            return Err(self.err(line, "clamp lower bound exceeds upper bound"));
        }
        Ok(AdaptRule {
            param,
            signal,
            op,
            threshold,
            hot,
            cold,
            lo,
            hi,
            line,
        })
    }

    fn parse_adapt_action(
        &self,
        param: AdaptParam,
        toks: &[String],
        line: usize,
    ) -> Result<(AdaptAction, usize), ParseError> {
        match toks.first().map(String::as_str) {
            Some("halve") => Ok((AdaptAction::Halve, 1)),
            Some("double") => Ok((AdaptAction::Double, 1)),
            Some("hold") => Ok((AdaptAction::Hold, 1)),
            Some(k @ ("add" | "sub")) => {
                let v = self.parse_adapt_value(param, toks.get(1), line)?;
                let action = if k == "add" {
                    AdaptAction::Add(v)
                } else {
                    AdaptAction::Sub(v)
                };
                Ok((action, 2))
            }
            other => Err(self.err(
                line,
                format!("expected adapt action (halve/double/hold/add/sub), got {other:?}"),
            )),
        }
    }

    /// Parses a value typed to the parameter: a duration (canonical µs)
    /// for duration params, a bare integer otherwise.
    fn parse_adapt_value(
        &self,
        param: AdaptParam,
        tok: Option<&String>,
        line: usize,
    ) -> Result<u64, ParseError> {
        let tok =
            tok.ok_or_else(|| self.err(line, format!("expected a `{}` value", param.name())))?;
        if param.is_duration() {
            parse_duration(tok)
                .map(SimDuration::as_micros)
                .ok_or_else(|| {
                    self.err(
                        line,
                        format!(
                            "`{}` values are durations (e.g. 500ms), got `{tok}`",
                            param.name()
                        ),
                    )
                })
        } else {
            tok.parse::<u64>().map_err(|_| {
                self.err(
                    line,
                    format!("`{}` values are integers, got `{tok}`", param.name()),
                )
            })
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Int(i64),
    Dur(SimDuration),
    Str(String),
}

impl PolicyScript {
    /// Parses a policy script.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the offending line on bad syntax.
    pub fn parse(source: &str) -> Result<Self, ParseError> {
        let mut lines = Vec::new();
        for (i, raw) in source.lines().enumerate() {
            let toks = tokenize(raw).map_err(|message| ParseError {
                line: i + 1,
                message,
            })?;
            lines.push((i + 1, toks));
        }
        let mut p = Parser {
            lines,
            pos: 0,
            adapt: Vec::new(),
        };
        let (body, _) = p.parse_block(&[])?;
        Ok(PolicyScript {
            body,
            adapt: p.adapt,
        })
    }

    /// The generic recovery script of Fig. 2.
    pub fn generic() -> Self {
        // analyze:allow(unwrap-recovery): parses a const known-good script;
        // covered by the policy unit tests, cannot fail at runtime.
        Self::parse(GENERIC_POLICY).expect("generic policy parses")
    }

    /// The `adapt` controller rules declared by the script, in source
    /// order.
    pub fn adapt_rules(&self) -> &[AdaptRule] {
        &self.adapt
    }

    /// Whether one of the script's `adapt` rules drives `p`.
    pub(crate) fn binds(&self, p: AdaptParam) -> bool {
        self.adapt.iter().any(|r| r.param == p)
    }

    fn eval(&self, e: &Expr, input: &PolicyInput) -> Value {
        match e {
            Expr::Int(n) => Value::Int(*n),
            Expr::Dur(d) => Value::Dur(*d),
            Expr::Str(s) => Value::Str(interpolate(s, input)),
            Expr::Reason => Value::Int(i64::from(input.reason)),
            Expr::Repetition => Value::Int(i64::from(input.repetition)),
            Expr::Param(n) => Value::Str(input.params.get(*n - 1).cloned().unwrap_or_default()),
            Expr::Backoff(base) => {
                // Binary exponential backoff: base << (repetition - 1),
                // capped by the service's parameter to stay sane under
                // crash loops. An adapt rule may override the base.
                let base = input.backoff_base.unwrap_or(*base);
                let cap = input.backoff_cap.unwrap_or(u32::MAX);
                let shift = input.repetition.saturating_sub(1).min(cap).min(63);
                Value::Dur(base.saturating_mul(1 << shift))
            }
        }
    }

    fn compare(lhs: &Value, op: CmpOp, rhs: &Value) -> bool {
        let ord = match (lhs, rhs) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Dur(a), Value::Dur(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Mixed types never compare equal and have no order; treat
            // as not-equal for == and != only.
            _ => {
                return match op {
                    CmpOp::Eq => false,
                    CmpOp::Ne => true,
                    _ => false,
                }
            }
        };
        match op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    fn run_body(&self, body: &[Stmt], input: &PolicyInput, out: &mut PolicyDecision) {
        for stmt in body {
            match stmt {
                Stmt::If {
                    lhs,
                    op,
                    rhs,
                    then_body,
                    else_body,
                } => {
                    let l = self.eval(lhs, input);
                    let r = self.eval(rhs, input);
                    if Self::compare(&l, *op, &r) {
                        self.run_body(then_body, input, out);
                    } else {
                        self.run_body(else_body, input, out);
                    }
                }
                Stmt::Sleep(e) => match self.eval(e, input) {
                    Value::Dur(d) => out.delay += d,
                    // A bare integer sleeps that many seconds, like sh.
                    Value::Int(n) if n > 0 => out.delay += SimDuration::from_secs(n as u64),
                    _ => {}
                },
                Stmt::Restart { version } => {
                    out.restart = true;
                    out.version = *version;
                }
                Stmt::GiveUp => {
                    out.gave_up = true;
                    out.restart = false;
                }
                Stmt::Alert(s) => out.alerts.push(interpolate(s, input)),
                Stmt::Log(s) => out.logs.push(interpolate(s, input)),
                Stmt::RestartComponent(name) => out.restart_components.push(name.clone()),
                Stmt::Reboot => out.reboot = true,
            }
        }
    }

    /// Executes the script for one failure.
    pub fn run(&self, input: &PolicyInput) -> PolicyDecision {
        let mut out = PolicyDecision::default();
        self.run_body(&self.body, input, &mut out);
        out
    }
}

fn interpolate(template: &str, input: &PolicyInput) -> String {
    let mut out = String::with_capacity(template.len());
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '$' {
            out.push(c);
            continue;
        }
        let mut name = String::new();
        while let Some(&n) = chars.peek() {
            if n.is_ascii_alphanumeric() {
                name.push(n);
                chars.next();
            } else {
                break;
            }
        }
        match name.as_str() {
            "component" => out.push_str(&input.component),
            "reason" => out.push_str(reason::name(input.reason)),
            "repetition" => out.push_str(&input.repetition.to_string()),
            _ => {
                if let Ok(n) = name.parse::<usize>() {
                    if n >= 1 {
                        out.push_str(input.params.get(n - 1).map(String::as_str).unwrap_or(""));
                        continue;
                    }
                }
                out.push('$');
                out.push_str(&name);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(reason_: u8, repetition: u32) -> PolicyInput {
        PolicyInput {
            component: "eth.rtl8139".to_string(),
            reason: reason_,
            repetition,
            params: vec!["admin@example.org".to_string()],
            backoff_base: None,
            backoff_cap: Some(PolicyParams::BASELINE.backoff_cap),
        }
    }

    #[test]
    fn names_are_the_last_segment_of_the_metric() {
        let classes: Vec<&str> = (0..=reason::UPDATE + 1).map(reason::name).collect();
        assert_eq!(
            classes,
            [
                "unknown",
                "exit",
                "exception",
                "killed",
                "heartbeat",
                "complaint",
                "update",
                "unknown"
            ]
        );
        for r in 0..=reason::UPDATE + 1 {
            assert_eq!(
                reason::counter(r),
                format!("rs.defect.{}", classes[r as usize])
            );
        }
        let spelled = [
            "heartbeat_period",
            "backoff_base",
            "backoff_cap",
            "restart_budget",
            "budget_window",
            "quorum_complaints",
        ];
        assert_eq!(AdaptParam::ALL.map(AdaptParam::name), spelled);
        for (p, name) in AdaptParam::ALL.into_iter().zip(spelled) {
            assert_eq!(p.trace().strip_prefix("rs.adapt.trace."), Some(name));
            assert_eq!(
                p.gauge("chr.printer")
                    .strip_prefix("rs.adapt.chr.printer.")
                    .map(|g| g.trim_end_matches("_us")),
                Some(name)
            );
        }
        assert_eq!(
            AdaptParam::HeartbeatPeriod.gauge("eth.rtl8139"),
            "rs.adapt.eth.rtl8139.heartbeat_period_us"
        );
    }

    #[test]
    fn generic_policy_backs_off_exponentially() {
        let p = PolicyScript::generic();
        for (rep, secs) in [(1u32, 1u64), (2, 2), (3, 4), (4, 8), (5, 16)] {
            let d = p.run(&input(reason::EXIT, rep));
            assert!(d.restart);
            assert_eq!(d.delay, SimDuration::from_secs(secs), "repetition {rep}");
        }
    }

    #[test]
    fn generic_policy_skips_backoff_for_updates() {
        let p = PolicyScript::generic();
        let d = p.run(&input(reason::UPDATE, 3));
        assert!(d.restart);
        assert_eq!(d.delay, SimDuration::ZERO, "Fig. 2: no backoff for updates");
    }

    #[test]
    fn generic_policy_alerts_when_param_set() {
        let p = PolicyScript::generic();
        let d = p.run(&input(reason::EXCEPTION, 2));
        assert_eq!(d.alerts.len(), 1);
        assert!(d.alerts[0].contains("eth.rtl8139"));
        assert!(d.alerts[0].contains("exception"));
        assert!(d.alerts[0].contains("admin@example.org"));
        // No param -> no alert.
        let mut i2 = input(reason::EXCEPTION, 2);
        i2.params.clear();
        assert!(p.run(&i2).alerts.is_empty());
    }

    /// A service with no script restarts directly: RS's no-script arm
    /// decides `restart` and nothing else. The one-line script `restart`
    /// decides exactly that for every input, so a direct restart needs
    /// no script.
    #[test]
    fn direct_restart_has_no_delay() {
        let no_script = PolicyDecision {
            restart: true,
            delay: SimDuration::ZERO,
            version: None,
            alerts: Vec::new(),
            logs: Vec::new(),
            restart_components: Vec::new(),
            reboot: false,
            gave_up: false,
        };
        let script = PolicyScript::parse("restart\n").unwrap();
        let params = [Vec::new(), vec!["admin@example.org".to_string()]];
        let backoff = [
            (None, None),
            (None, Some(PolicyParams::BASELINE.backoff_cap)),
            (Some(SimDuration::from_millis(250)), Some(1)),
        ];
        for r in reason::EXIT..=reason::UPDATE {
            for repetition in 1..=12 {
                for params in &params {
                    for (backoff_base, backoff_cap) in backoff {
                        let input = PolicyInput {
                            params: params.clone(),
                            backoff_base,
                            backoff_cap,
                            ..input(r, repetition)
                        };
                        assert_eq!(script.run(&input), no_script, "{input:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn give_up_after_too_many_failures() {
        let src = r#"
if repetition > 3 then
    alert "giving up on $component"
    give-up
else
    restart
end
"#;
        let p = PolicyScript::parse(src).unwrap();
        assert!(p.run(&input(reason::EXIT, 2)).restart);
        let d = p.run(&input(reason::EXIT, 4));
        assert!(!d.restart);
        assert!(d.gave_up);
        assert_eq!(d.alerts, vec!["giving up on eth.rtl8139".to_string()]);
    }

    #[test]
    fn dedicated_network_server_policy_restarts_dependents() {
        // §5.2: recovering the network server requires restarting the
        // DHCP client (and the X server, in the paper's example).
        let src = r#"
restart
restart-component dhcpd
log "restarted network stack for $component"
"#;
        let p = PolicyScript::parse(src).unwrap();
        let d = p.run(&input(reason::EXIT, 1));
        assert_eq!(d.restart_components, vec!["dhcpd".to_string()]);
        assert_eq!(d.logs.len(), 1);
    }

    #[test]
    fn reboot_policy() {
        let src = "if repetition >= 10 then\n reboot\nelse\n restart\nend\n";
        let p = PolicyScript::parse(src).unwrap();
        assert!(p.run(&input(reason::EXIT, 10)).reboot);
        assert!(!p.run(&input(reason::EXIT, 9)).reboot);
    }

    #[test]
    fn sleep_with_plain_integer_means_seconds() {
        let p = PolicyScript::parse("sleep 3\nrestart\n").unwrap();
        assert_eq!(
            p.run(&input(reason::EXIT, 1)).delay,
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn restart_pinned_version() {
        let p = PolicyScript::parse("restart version = 2\n").unwrap();
        assert_eq!(p.run(&input(reason::EXIT, 1)).version, Some(2));
    }

    #[test]
    fn backoff_is_capped() {
        let p = PolicyScript::parse("sleep backoff(1s)\nrestart\n").unwrap();
        let d = p.run(&input(reason::EXIT, 40));
        assert_eq!(
            d.delay,
            SimDuration::from_secs(128),
            "capped at 7 doublings"
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = PolicyScript::parse("restart\nfrobnicate\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("frobnicate"));
        let err = PolicyScript::parse("if reason != exit then\nrestart\n").unwrap_err();
        assert!(err.message.contains("missing"));
        let err = PolicyScript::parse("alert unquoted\n").unwrap_err();
        assert!(err.message.contains("quoted"));
        let err = PolicyScript::parse("sleep backoff(zzz)\n").unwrap_err();
        assert!(err.message.contains("duration"));
    }

    #[test]
    fn bad_backoff_durations_are_rejected() {
        // Every malformed duration must fail at parse time, not silently
        // become a zero delay at recovery time.
        for bad in [
            "sleep backoff(zzz)\n",
            "sleep backoff(1x)\n",   // unknown unit
            "sleep backoff(s)\n",    // missing number
            "sleep backoff(-1s)\n",  // negative
            "sleep backoff(1.5s)\n", // fractional
            "sleep backoff()\n",     // empty
        ] {
            let err = PolicyScript::parse(bad).unwrap_err();
            assert_eq!(err.line, 1, "{bad:?}");
            assert!(
                err.message.contains("duration") || err.message.contains("argument"),
                "{bad:?} -> {}",
                err.message
            );
        }
        // `backoff` without parentheses is not a value either.
        assert!(PolicyScript::parse("sleep backoff\n").is_err());
    }

    #[test]
    fn unknown_keywords_are_rejected_with_the_offender_named() {
        // Statement position.
        let err = PolicyScript::parse("restart\nexplode\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("explode"));
        // Expression position.
        let err = PolicyScript::parse("if bogus == 1 then\nrestart\nend\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("bogus"));
        // Garbage after a known statement.
        let err = PolicyScript::parse("restart twice\n").unwrap_err();
        assert!(err.message.contains("twice"));
    }

    #[test]
    fn truncated_scripts_are_rejected() {
        // `if` without its `end`.
        let err = PolicyScript::parse("if reason != exit then\nrestart\n").unwrap_err();
        assert!(err.message.contains("missing"));
        // `else` branch cut off mid-block.
        let err =
            PolicyScript::parse("if reason == exit then\nrestart\nelse\ngive-up\n").unwrap_err();
        assert!(err.message.contains("missing `end`"));
        // Header itself truncated: no `then`.
        let err = PolicyScript::parse("if reason != exit\nrestart\nend\n").unwrap_err();
        assert!(err.message.contains("then"));
        // Comparison cut off after the operator.
        let err = PolicyScript::parse("if reason !=\nrestart\nend\n").unwrap_err();
        assert!(err.message.contains("expression"));
        // A lone `end` with no opener is also an unknown statement.
        assert!(PolicyScript::parse("end\n").is_err());
    }

    #[test]
    fn bad_param_references_are_rejected() {
        let err = PolicyScript::parse("if param(0) != \"\" then\nrestart\nend\n").unwrap_err();
        assert!(err.message.contains("start at 1"));
        let err = PolicyScript::parse("if param(x) != \"\" then\nrestart\nend\n").unwrap_err();
        assert!(err.message.contains("integer"));
    }

    #[test]
    fn tokenizer_handles_dense_syntax() {
        let p = PolicyScript::parse("if reason!=update then\nrestart\nend\n").unwrap();
        let d = p.run(&input(reason::EXIT, 1));
        assert!(d.restart);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = PolicyScript::parse("alert \"oops\n").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn backoff_respects_live_overrides() {
        let p = PolicyScript::parse("sleep backoff(1s)\nrestart\n").unwrap();
        let mut i = input(reason::EXIT, 4);
        i.backoff_base = Some(SimDuration::from_millis(100));
        i.backoff_cap = Some(2);
        // base 100ms, shift min(3, 2) = 2 -> 400ms.
        assert_eq!(p.run(&i).delay, SimDuration::from_millis(400));
        // The override only changes backoff(), not literal sleeps.
        let lit = PolicyScript::parse("sleep 500ms\nrestart\n").unwrap();
        assert_eq!(lit.run(&i).delay, SimDuration::from_millis(500));
    }

    #[test]
    fn baseline_params_match_the_historical_constants() {
        let p = PolicyParams::BASELINE;
        assert_eq!(p.heartbeat_period, SimDuration::from_secs(1));
        assert_eq!(p.heartbeat_misses, 3);
        assert_eq!(p.backoff_base, SimDuration::from_secs(1));
        assert_eq!(p.backoff_cap, 7);
        assert_eq!(p.restart_budget, 10);
        assert_eq!(p.budget_window, SimDuration::from_secs(30));
        assert_eq!(p.quorum_complaints, 3);
    }

    #[test]
    fn adapt_script_round_trips() {
        let src = r#"
# self-tuning policy: tighten heartbeats when flappy, widen the budget
# window under correlated chaos, keep backoff bounded.
adapt heartbeat_period when failures >= 3 halve else double clamp 250ms 2s
adapt budget_window when failures >= 5 add 5s else sub 1s clamp 10s 120s
adapt backoff_cap when mttr_p95 > 500 sub 1 else add 1 clamp 2 7
adapt quorum_complaints when complaints > 8 add 1 else hold clamp 2 6
if reason != update then
    sleep backoff(1s)
end
restart
"#;
        let p = PolicyScript::parse(src).unwrap();
        let rules = p.adapt_rules();
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].param, AdaptParam::HeartbeatPeriod);
        assert_eq!(rules[0].signal, AdaptSignal::Failures);
        assert_eq!(rules[0].clamp_band(), (250_000, 2_000_000));
        assert_eq!(rules[0].line, 4);
        assert_eq!(rules[1].param, AdaptParam::BudgetWindow);
        assert_eq!(rules[1].clamp_band(), (10_000_000, 120_000_000));
        assert_eq!(rules[2].param, AdaptParam::BackoffCap);
        assert_eq!(rules[2].signal, AdaptSignal::MttrP95Ms);
        assert_eq!(rules[2].clamp_band(), (2, 7));
        assert_eq!(rules[3].param, AdaptParam::QuorumComplaints);
        assert_eq!(rules[3].signal, AdaptSignal::Complaints);
        // The per-failure decision path is untouched by adapt rules.
        let d = p.run(&input(reason::EXIT, 1));
        assert!(d.restart);
        assert_eq!(d.delay, SimDuration::from_secs(1));
    }

    #[test]
    fn adapt_controller_steps_stay_inside_the_clamp_band() {
        let src =
            "adapt heartbeat_period when failures >= 3 halve else double clamp 250ms 2s\nrestart\n";
        let p = PolicyScript::parse(src).unwrap();
        let rule = &p.adapt_rules()[0];
        let mut params = PolicyParams::BASELINE;
        // Hot: halve repeatedly; pins at the lower bound, then reports
        // no further change.
        assert_eq!(rule.step(5, &mut params), Some(500_000));
        assert_eq!(rule.step(5, &mut params), Some(250_000));
        assert_eq!(rule.step(5, &mut params), None);
        assert_eq!(params.heartbeat_period, SimDuration::from_millis(250));
        // Cold: double back up; pins at the upper bound.
        assert_eq!(rule.step(0, &mut params), Some(500_000));
        assert_eq!(rule.step(0, &mut params), Some(1_000_000));
        assert_eq!(rule.step(0, &mut params), Some(2_000_000));
        assert_eq!(rule.step(0, &mut params), None);
        assert_eq!(params.heartbeat_period, SimDuration::from_secs(2));
        // add/sub actions clamp the same way.
        let p2 = PolicyScript::parse(
            "adapt restart_budget when failures >= 4 add 25 else sub 25 clamp 5 40\nrestart\n",
        )
        .unwrap();
        let rule2 = &p2.adapt_rules()[0];
        assert_eq!(rule2.step(9, &mut params), Some(35));
        assert_eq!(rule2.step(9, &mut params), Some(40), "clamped to hi");
        assert_eq!(rule2.step(0, &mut params), Some(15));
        assert_eq!(rule2.step(0, &mut params), Some(5), "clamped to lo");
        assert_eq!(params.restart_budget, 5);
    }

    #[test]
    fn adapt_red_paths_carry_line_numbers() {
        for (src, line, needle) in [
            (
                "restart\nadapt flux_capacitor when failures > 3 halve else hold clamp 1 2\n",
                2,
                "flux_capacitor",
            ),
            (
                "adapt heartbeat_period if failures > 3 halve else hold clamp 1ms 2ms\n",
                1,
                "`when`",
            ),
            (
                "adapt heartbeat_period when vibes > 3 halve else hold clamp 1ms 2ms\n",
                1,
                "vibes",
            ),
            (
                "adapt heartbeat_period when failures halve else hold clamp 1ms 2ms\n",
                1,
                "comparison",
            ),
            (
                "adapt heartbeat_period when failures > fast halve else hold clamp 1ms 2ms\n",
                1,
                "integer",
            ),
            (
                "adapt heartbeat_period when failures > 3 explode else hold clamp 1ms 2ms\n",
                1,
                "action",
            ),
            (
                "adapt heartbeat_period when failures > 3 halve hold clamp 1ms 2ms\n",
                1,
                "`else`",
            ),
            (
                "adapt heartbeat_period when failures > 3 halve else hold\n",
                1,
                "clamp",
            ),
            (
                "adapt heartbeat_period when failures > 3 halve else hold clamp 5 2s\n",
                1,
                "duration",
            ),
            (
                "adapt restart_budget when failures > 3 add 5 else sub 1 clamp 1s 9\n",
                1,
                "integer",
            ),
            (
                "adapt restart_budget when failures > 3 add 2s else sub 1 clamp 1 9\n",
                1,
                "integer",
            ),
            (
                "adapt heartbeat_period when failures > 3 halve else hold clamp 2s 250ms\n",
                1,
                "exceeds",
            ),
            (
                "adapt restart_budget when failures > 3 add 1 else hold clamp 0 9\n",
                1,
                "positive",
            ),
            (
                "adapt heartbeat_period when failures > 3 halve else hold clamp 250ms 2s extra\n",
                1,
                "trailing",
            ),
        ] {
            let err = PolicyScript::parse(src).unwrap_err();
            assert_eq!(err.line, line, "{src:?}");
            assert!(err.message.contains(needle), "{src:?} -> {}", err.message);
        }
    }

    #[test]
    fn adapt_is_rejected_inside_if_blocks() {
        let src = "if reason == exit then\nadapt heartbeat_period when failures > 3 halve else hold clamp 250ms 2s\nend\nrestart\n";
        let err = PolicyScript::parse(src).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("top level"));
    }

    #[test]
    fn reason_names_map_to_section_5_1_numbers() {
        assert_eq!(reason::EXIT, 1);
        assert_eq!(reason::EXCEPTION, 2);
        assert_eq!(reason::KILLED, 3);
        assert_eq!(reason::HEARTBEAT, 4);
        assert_eq!(reason::COMPLAINT, 5);
        assert_eq!(reason::UPDATE, 6);
        assert_eq!(reason::name(4), "heartbeat");
    }
}
