//! Red/green fixture suite for the conformance and reachability passes.
//!
//! Each scenario is a pair: a *red* fixture that must produce exactly
//! the expected finding, and a *green* twin differing only in the
//! property under test that must stay silent. This pins the analyzer's
//! sensitivity in both directions — a pass that goes quiet on the red
//! fixture has lost its teeth; one that fires on the green fixture has
//! started crying wolf.

use std::collections::BTreeMap;

use phoenix_analyze::{conformance, loc, proto_model, reach, report, Source};

const PROTO: &str = "crates/x/src/proto.rs";

/// The conformance pass over one protocol file and one user of it.
fn conform(proto: &str, user: &str) -> conformance::Outcome {
    let files = [
        Source::new(PROTO, proto),
        Source::new("crates/x/src/client.rs", user),
    ];
    conformance::analyze(&files, &[PROTO])
}

/// The reachability pass over one file (its crate is the path's).
fn reach_over(rel: &str, src: &str) -> reach::Outcome {
    reach::analyze(&[Source::new(rel, src)], &BTreeMap::new())
}

// ------------------------------------------------------------- coverage

const COVERAGE_PROTO: &str = r#"
pub mod ping {
    phoenix_kernel::protocol! {
        request PING = 0x100 -> PONG, Ping { nonce: 0 }
        /// The echo.
        reply PONG = 0x101, Pong { nonce: 0 }
    }
}
"#;

const COVERAGE_USAGE_RED: &str = r#"
use crate::proto::ping;
fn client(ctx: &mut Ctx, dst: Endpoint) {
    ctx.sendrec(dst, Message::new(ping::PING));
}
fn client_done(reply: &Message) -> bool {
    matches!(ping::Msg::decode(reply), Some(ping::Msg::PONG(_)))
}
"#;

const COVERAGE_USAGE_GREEN: &str = r#"
use crate::proto::ping;
fn client(ctx: &mut Ctx, dst: Endpoint) {
    ctx.sendrec(dst, Message::new(ping::PING));
}
fn client_done(reply: &Message) -> bool {
    matches!(ping::Msg::decode(reply), Some(ping::Msg::PONG(_)))
}
fn server(ctx: &mut Ctx, call: CallId, msg: &Message) {
    if let Some(ping::Msg::PING(_)) = ping::Msg::decode(msg) {
        ctx.reply(call, Message::new(ping::PONG));
    }
}
"#;

#[test]
fn sent_but_unhandled_red_green() {
    // Red: a client sends PING, but no dispatch arm anywhere matches it
    // — the message is emitted and dropped on the floor. Its reply is
    // the dual: matched but never constructed.
    let red = conform(COVERAGE_PROTO, COVERAGE_USAGE_RED);
    let rules: Vec<&str> = red.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"proto-unhandled"), "findings: {rules:?}");
    assert!(rules.contains(&"proto-unsent"), "findings: {rules:?}");

    // Green: add the server's dispatch arm and the reply construction.
    let green = conform(COVERAGE_PROTO, COVERAGE_USAGE_GREEN);
    assert!(green.findings.is_empty(), "findings: {:?}", green.findings);
    let ping = &green.usage["ping::PING"];
    assert!(ping.sends >= 1 && ping.handles >= 1);
}

const SUPPRESSED_PROTO: &str = r#"
pub mod ping {
    phoenix_kernel::protocol! {
        // analyze:allow(proto-unhandled): fixture — the handler ships next PR.
        request PING = 0x100 -> PONG, Ping { nonce: 0 }
        // analyze:allow(proto-unsent): dual of PING's proto-unhandled.
        reply PONG = 0x101, Pong { nonce: 0 }
    }
}
"#;

/// The same protocol spoken through its rows' layout structs: a struct
/// literal (or any other mention of the struct, `into_message` included)
/// builds the kind, `from_message` reads it. The server matches the
/// table's enum.
const LAYOUT_USAGE_CLIENT: &str = r#"
use crate::proto::ping;
fn client(ctx: &mut Ctx, dst: Endpoint) {
    ctx.sendrec(dst, ping::Ping { nonce: 7 }.into_message());
}
fn client_done(reply: &Message) -> Option<u64> {
    ping::Pong::from_message(reply).map(|pong| pong.nonce)
}
"#;

const LAYOUT_USAGE_SERVER: &str = r#"
fn server(ctx: &mut Ctx, call: CallId, msg: &Message) {
    if let Some(ping::Msg::PING(ping)) = ping::Msg::decode(msg) {
        ctx.reply(call, ping::Pong { nonce: ping.nonce }.into_message());
    }
}
"#;

#[test]
fn layouts_count_as_sends_and_handles() {
    // Red: the client alone sends a PING nobody reads and reads a PONG
    // nobody sends.
    let red = conform(COVERAGE_PROTO, LAYOUT_USAGE_CLIENT);
    let rules: Vec<&str> = red.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["proto-unhandled", "proto-unsent"]);

    // Green: the server reads the PING and builds the PONG.
    let green = conform(
        COVERAGE_PROTO,
        &format!("{LAYOUT_USAGE_CLIENT}{LAYOUT_USAGE_SERVER}"),
    );
    assert!(green.findings.is_empty(), "findings: {:?}", green.findings);
    for kind in ["ping::PING", "ping::PONG"] {
        let usage = &green.usage[kind];
        assert_eq!((usage.sends, usage.handles), (1, 1), "{kind}");
    }
}

#[test]
fn conformance_pragma_moves_finding_to_suppressed() {
    let out = conform(SUPPRESSED_PROTO, COVERAGE_USAGE_RED);
    assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
    let rules: Vec<&str> = out.suppressed.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["proto-unhandled", "proto-unsent"]);
}

/// The server lists every kind of its table, as an owning receiver must:
/// its own reply kind sits in the refusal arm beside `None`.
const REFUSAL_SERVER: &str = r#"
use crate::proto::ping;
fn client(ctx: &mut Ctx, dst: Endpoint) {
    ctx.sendrec(dst, ping::Ping { nonce: 7 }.into_message());
}
fn server(ctx: &mut Ctx, call: CallId, msg: &Message) {
    match ping::Msg::decode(msg) {
        Some(ping::Msg::PING(ping)) => {
            ctx.reply(call, ping::Pong { nonce: ping.nonce }.into_message());
        }
        // A reply, or another table's kind.
        Some(ping::Msg::PONG(_)) | None => ctx.reply(call, refusal()),
    }
}
"#;

const REFUSAL_READER: &str = r#"
fn client_done(reply: &Message) -> Option<u64> {
    ping::Pong::from_message(reply).map(|pong| pong.nonce)
}
"#;

#[test]
fn a_reply_named_only_in_its_servers_refusal_arm_is_unhandled() {
    // Red: the server names PONG only to refuse it, as it refuses a
    // foreign kind; no client reads the PONG it sends.
    let red = conform(COVERAGE_PROTO, REFUSAL_SERVER);
    let found: Vec<String> = red.findings.iter().map(|f| f.message.clone()).collect();
    assert_eq!(
        found,
        ["ping::PONG is sent at 1 site(s) but matched in no dispatch arm"]
    );
    assert_eq!(red.usage["ping::PONG"].handles, 0);

    // Green: a client reads the reply.
    let green = conform(COVERAGE_PROTO, &format!("{REFUSAL_SERVER}{REFUSAL_READER}"));
    assert!(green.findings.is_empty(), "findings: {:?}", green.findings);
    assert_eq!(green.usage["ping::PONG"].handles, 1);
}

#[test]
fn a_kind_named_only_in_a_comment_or_a_string_is_dead() {
    // Red: the names occur in the text of the file, not in its code.
    let red = conform(
        COVERAGE_PROTO,
        "// replies with ping::PONG\nfn f() { log(\"ping::PING\"); }\n",
    );
    let dead: Vec<String> = red.dead_edges.iter().map(ToString::to_string).collect();
    assert_eq!(
        dead,
        [
            "crates/x/src/proto.rs:4: [dead-edge] ping::PING is never sent or handled",
            "crates/x/src/proto.rs:6: [dead-edge] ping::PONG is never sent or handled",
        ]
    );

    let green = conform(COVERAGE_PROTO, COVERAGE_USAGE_GREEN);
    assert!(green.dead_edges.is_empty(), "{:?}", green.dead_edges);
}

/// PING's first field is typed, with its type's path written out.
const TYPED_PROTO: &str = r#"
pub mod ping {
    phoenix_kernel::protocol! {
        request PING = 0x100 -> PONG, Ping { from: 0 as Option<types::Endpoint>, nonce: 2 }
        reply PONG = 0x101, Pong { nonce: 0 }
    }
}
"#;

/// The layout module's width for that type.
const TYPED_LAYOUT: &str = r#"
impl crate::layout::Field for Option<crate::types::Endpoint> {
    const SLOTS: usize = 2;
    fn read(params: &[u64; 8], at: usize) -> Self { None }
}
"#;

#[test]
fn a_typed_field_needs_its_width_from_the_layout_module() {
    let usage = format!("{LAYOUT_USAGE_CLIENT}{LAYOUT_USAGE_SERVER}");
    // Red: no layout module in the load, so no width for the type. The
    // row is kept, its field fills no slot, and the gap is a finding.
    let red = conform(TYPED_PROTO, &usage);
    let found: Vec<String> = red.findings.iter().map(ToString::to_string).collect();
    assert_eq!(
        found,
        [
            "crates/x/src/proto.rs:4: [proto-field-type] ping::PING's `from`: \
          no `impl Field` states its type's width"
        ]
    );
    assert_eq!(red.kinds[0].fields[0], (0, 0, "from".to_string()));

    // Green: the layout module states it; the field fills slots 0 and 1.
    let files = [
        Source::new(PROTO, TYPED_PROTO),
        Source::new("crates/x/src/client.rs", &usage),
        Source::new(proto_model::LAYOUT_FILE, TYPED_LAYOUT),
    ];
    let green = conformance::analyze(&files, &[PROTO]);
    assert!(green.findings.is_empty(), "findings: {:?}", green.findings);
    let fields = &green.kinds[0].fields;
    assert_eq!(fields[0], (0, 2, "from".to_string()));
}

// -------------------------------------------------------------    reach

const REACH_RED: &str = r#"
// analyze:recovery-root
fn on_event(x: Option<u32>) {
    helper(x);
}
fn helper(x: Option<u32>) {
    deeper(x);
}
fn deeper(x: Option<u32>) {
    let _ = x.unwrap();
}
"#;

// Identical call chain, no root marker: nothing is recovery-critical.
const REACH_GREEN: &str = r#"
fn on_event(x: Option<u32>) {
    helper(x);
}
fn helper(x: Option<u32>) {
    deeper(x);
}
fn deeper(x: Option<u32>) {
    let _ = x.unwrap();
}
"#;

#[test]
fn transitive_panic_through_helper_red_green() {
    let red = reach_over("crates/x/src/srv.rs", REACH_RED);
    assert_eq!(red.findings.len(), 1, "findings: {:?}", red.findings);
    let f = &red.findings[0];
    assert_eq!(f.what, ".unwrap()");
    assert_eq!(
        f.path.len(),
        3,
        "root -> helper -> deeper, got {:?}",
        f.path
    );
    assert!(f.path[0].ends_with("on_event"));
    assert!(f.path[2].ends_with("deeper"));
    assert_eq!(red.reachable, 3);

    let green = reach_over("crates/x/src/srv.rs", REACH_GREEN);
    assert!(green.findings.is_empty());
    assert_eq!(green.reachable, 0, "no roots, nothing reachable");
    assert_eq!(green.functions, 3, "the graph still sees every fn");
}

// The `libserver` shape: the root is a generic shell's `on_event`, the
// panic hides in a trait impl's `dispatch` that only the shell calls —
// through a type parameter, so no receiver type names the impl. The
// impl in turn calls a generic free function with a turbofish (the
// `register_stream::<PrinterPort>(..)` shape), hiding a second panic.
const REACH_SHELL_RED: &str = r#"
trait Logic {
    fn dispatch(&mut self, x: Option<u32>);
}
struct Shell<L> {
    logic: L,
}
impl<L: Logic> Shell<L> {
    // analyze:recovery-root
    fn on_event(&mut self, x: Option<u32>) {
        self.logic.dispatch(x);
    }
}
struct Vfs;
impl Logic for Vfs {
    fn dispatch(&mut self, x: Option<u32>) {
        let _ = x.unwrap();
        register::<Vec<u32>>(x);
    }
}
fn register<T>(x: Option<u32>) {
    let _ = x.expect("planted");
}
"#;

#[test]
fn generic_shell_root_reaches_trait_impl_dispatch() {
    let red = reach_over("crates/x/src/shell.rs", REACH_SHELL_RED);
    assert_eq!(red.findings.len(), 2, "findings: {:?}", red.findings);
    let f = &red.findings[0];
    assert_eq!(f.what, ".unwrap()");
    assert_eq!(f.path.len(), 2, "on_event -> dispatch, got {:?}", f.path);
    assert!(f.path[0].ends_with("on_event"));
    assert!(f.in_fn.ends_with("dispatch"));
    let f = &red.findings[1];
    assert_eq!(f.what, ".expect()");
    assert_eq!(f.path.len(), 3, "-> register::<T>, got {:?}", f.path);
    assert!(f.in_fn.ends_with("register"));

    // Without the root marker the same indirection is not recovery-critical.
    let green = REACH_SHELL_RED.replace("// analyze:recovery-root", "");
    let green = reach_over("crates/x/src/shell.rs", &green);
    assert!(green.findings.is_empty());
    assert_eq!(green.reachable, 0);
}

// The file-server shape: generic code reaches the implementor through
// its type parameter, not through a value — `V::decode(..)` names no
// workspace type, and only the parameter list says `V` is one of ours.
const REACH_TYPE_PARAM_RED: &str = r#"
trait Volume {
    fn decode(x: Option<u32>) -> Self;
}
struct Engine<V> {
    volume: V,
}
impl<'a, V: Volume, const N: usize> Engine<V> {
    // analyze:recovery-root
    fn apply(&mut self, x: Option<u32>) {
        self.volume = V::decode(x);
        let _ = N::decode(x);
        rebuild::<V>(x);
    }
}
fn rebuild<T: Volume>(x: Option<u32>) {
    let _ = T::decode(x);
}
struct Fat;
impl Volume for Fat {
    fn decode(x: Option<u32>) -> Self {
        let _ = x.unwrap();
        Fat
    }
}
"#;

#[test]
fn calls_through_a_type_parameter_reach_every_implementor() {
    let red = reach_over("crates/x/src/engine.rs", REACH_TYPE_PARAM_RED);
    assert_eq!(red.findings.len(), 1, "findings: {:?}", red.findings);
    let f = &red.findings[0];
    assert_eq!(f.path.len(), 2, "apply -> decode, got {:?}", f.path);
    assert!(f.in_fn.ends_with("decode"));
    assert_eq!(red.reachable, 3, "apply, rebuild, Fat::decode");

    // A fn's own parameter counts like the impl's; a const parameter or
    // an unknown qualifier (`N::`, `Vec::`) still contributes no edge.
    let only_fn = REACH_TYPE_PARAM_RED.replace("self.volume = V::decode(x);", "");
    let out = reach_over("crates/x/src/engine.rs", &only_fn);
    assert_eq!(out.findings.len(), 1);
    assert_eq!(out.findings[0].path.len(), 3, "apply -> rebuild -> decode");
    let neither = only_fn.replace("let _ = T::decode(x);", "");
    let out = reach_over("crates/x/src/engine.rs", &neither);
    assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
}

const REACH_SUPPRESSED: &str = r#"
// analyze:recovery-root
fn on_event(x: Option<u32>) {
    helper(x);
}
fn helper(x: Option<u32>) {
    // analyze:allow(panic-reach): fixture — invariant justified here.
    let _ = x.unwrap();
}
"#;

#[test]
fn reach_pragma_moves_site_to_suppressed() {
    let out = reach_over("crates/x/src/srv.rs", REACH_SUPPRESSED);
    assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].what, ".unwrap()");
}

// ------------------------------------------------------- path scope

/// The reachability pass follows the call graph wherever it goes: no
/// path list decides where a recovery root's helper may not unwrap.
const PATH_SCOPE_SRC: &str = r#"
// analyze:recovery-root
fn on_event(x: Option<u32>) {
    helper(x);
}
fn helper(x: Option<u32>) {
    let _ = x.unwrap();
}
"#;

#[test]
fn reachability_is_path_scope_free() {
    for rel in ["crates/servers/src/rs.rs", "crates/hw/src/gadget.rs"] {
        let out = reach_over(rel, PATH_SCOPE_SRC);
        assert_eq!(out.findings.len(), 1, "{rel}");
    }
}

// --------------------------------------------------------------- load

#[test]
fn a_source_file_that_cannot_be_read_is_an_error_naming_it() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unreadable");
    let dir = root.join("crates/hw/src");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fine.rs"), "fn f() {}\n").unwrap();
    assert_eq!(phoenix_analyze::load(&root).unwrap().len(), 1);

    // Not UTF-8: `read_to_string` refuses it (so does a dangling link or
    // a file without read permission).
    std::fs::write(dir.join("torn.rs"), [0xff, 0xfe]).unwrap();
    let err = phoenix_analyze::load(&root).err().expect("load must fail");
    assert!(
        err.to_string().starts_with("crates/hw/src/torn.rs: "),
        "{err}"
    );
    std::fs::remove_file(dir.join("torn.rs")).unwrap();
}

// ------------------------------------------------------------- report

#[test]
fn report_is_byte_stable() {
    let conf = conform(COVERAGE_PROTO, COVERAGE_USAGE_RED);
    let rch = reach_over("crates/x/src/srv.rs", REACH_RED);

    let a = report::build(&[], &conf, &rch, &loc::Counted::default()).pretty();
    let b = report::build(&[], &conf, &rch, &loc::Counted::default()).pretty();
    assert_eq!(a, b, "two builds over identical inputs are byte-identical");
    assert!(a.ends_with('\n'));
    assert!(a.contains("\"schema\": \"phoenix-analyze/v1\""));
}

#[test]
fn empty_report_golden() {
    let conf = conformance::analyze(&[], &[]);
    let rch = reach::analyze(&[], &BTreeMap::new());
    let rendered = report::build(&[], &conf, &rch, &loc::Counted::default()).pretty();
    let golden = "{\n\
                  \x20 \"conformance\": {\n\
                  \x20   \"findings\": [],\n\
                  \x20   \"kinds\": [],\n\
                  \x20   \"slot_registry\": {},\n\
                  \x20   \"suppressed\": []\n\
                  \x20 },\n\
                  \x20 \"dead_edges\": {\n\
                  \x20   \"edges\": [],\n\
                  \x20   \"glob_warnings\": []\n\
                  \x20 },\n\
                  \x20 \"lint\": {\n\
                  \x20   \"findings\": []\n\
                  \x20 },\n\
                  \x20 \"loc\": {\n\
                  \x20   \"fig9\": [],\n\
                  \x20   \"findings\": []\n\
                  \x20 },\n\
                  \x20 \"reach\": {\n\
                  \x20   \"findings\": [],\n\
                  \x20   \"functions\": 0,\n\
                  \x20   \"reachable\": 0,\n\
                  \x20   \"roots\": [],\n\
                  \x20   \"suppressed\": []\n\
                  \x20 },\n\
                  \x20 \"schema\": \"phoenix-analyze/v1\"\n\
                  }\n";
    assert_eq!(rendered, golden);
}
