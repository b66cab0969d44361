//! Message layouts: one table per protocol, one row per message kind.
//!
//! A [`Message`](crate::types::Message) carries eight `u64` params, and
//! which slot means what is a property of its kind.
//! [`protocol!`](crate::protocol) states it once, in a row, and generates
//! the typed view every sender and receiver goes through:
//!
//! ```text
//! /// Doc comment of the kind.
//! <direction> NAME = <value> [-> REPLY];
//! <direction> NAME = <value> [-> REPLY], Layout { field: slot, .. }
//! ```
//!
//! * `direction` is `request` (answered by `REPLY`, a kind of the same
//!   table), `reply`, `oneway`, or `value` (a tagged number such as an
//!   evidence class, never a message);
//! * every row declares `pub const NAME: u32`;
//! * a row with fields also declares `Layout`, a `Copy` struct of one `u64`
//!   per field, with `into_message` (the kind's message, each field in its
//!   slot and every other slot zero) and `from_message` (the fields of a
//!   message of this kind, `None` for any other kind). A payload rides in
//!   `data`, outside the layout;
//! * a table with message rows also declares `Msg`, one variant per
//!   `request`, `reply` and `oneway` row, named as the row and carrying its
//!   layout if it has one. `Msg::decode` reads a message's kind once and
//!   returns its variant, or `None` for a kind of another table. A
//!   receiver matches the variants, so the compiler checks that it lists
//!   every kind, and no arm reads a slot of a kind it does not handle.
//!
//! The compiler checks what a comment could only claim. A field in slot 8
//! or beyond, two fields in one slot, a request without a reply, a reply
//! that names no kind and an unknown direction all fail the build; two
//! rows of one table with one value are an unreachable pattern in
//! `decode`, which `-D warnings` rejects. `phoenix-analyze` reads the same
//! rows for its conformance report, and holds every message value of the
//! workspace distinct.
//!
//! ```
//! mod ping {
//!     phoenix_kernel::protocol! {
//!         /// Are you there? The reply echoes the nonce.
//!         request PING = 0x100 -> PONG, Ping { nonce: 0 }
//!         /// The echo.
//!         reply PONG = 0x101, Pong { nonce: 0 }
//!         /// Goodbye; nothing in the params.
//!         oneway BYE = 0x102;
//!     }
//! }
//!
//! let msg = ping::Ping { nonce: 7 }.into_message();
//! assert_eq!(msg.mtype, ping::PING);
//! assert_eq!(ping::Ping::from_message(&msg), Some(ping::Ping { nonce: 7 }));
//! assert_eq!(ping::Pong::from_message(&msg), None);
//!
//! // A receiver names every kind of its table; `None` is a foreign kind.
//! let answer = |msg| match ping::Msg::decode(msg) {
//!     Some(ping::Msg::PING(ping::Ping { nonce })) => Some(nonce),
//!     Some(ping::Msg::PONG(_) | ping::Msg::BYE) | None => None,
//! };
//! assert_eq!(answer(&msg), Some(7));
//! assert_eq!(answer(&phoenix_kernel::types::Message::new(0x200)), None);
//! ```

/// Declares a protocol's message kinds, one row per kind; see the
/// [module documentation](crate::layout) for the row grammar.
///
/// Two fields in one slot:
///
/// ```compile_fail,E0080
/// phoenix_kernel::protocol! {
///     oneway SEEK = 1, Seek { lba: 0, count: 0 }
/// }
/// ```
///
/// A slot past the eighth:
///
/// ```compile_fail,E0080
/// phoenix_kernel::protocol! {
///     oneway SEEK = 1, Seek { lba: 8 }
/// }
/// ```
///
/// A reply that names no kind:
///
/// ```compile_fail,E0425
/// phoenix_kernel::protocol! {
///     request SEEK = 1 -> SEEK_REPLY, Seek { lba: 0 }
/// }
/// ```
///
/// A receiver that leaves out a kind of its table:
///
/// ```compile_fail,E0004
/// phoenix_kernel::protocol! {
///     request SEEK = 1 -> DONE, Seek { lba: 0 }
///     reply DONE = 2;
/// }
/// fn serve(msg: &phoenix_kernel::types::Message) -> u64 {
///     match Msg::decode(msg) {
///         Some(Msg::SEEK(seek)) => seek.lba,
///         None => 0,
///     }
/// }
/// ```
#[macro_export]
macro_rules! protocol {
    (@direction request -> $reply:ident) => {
        const _: u32 = $reply;
    };
    (@direction reply) => {};
    (@direction oneway) => {};
    (@direction value) => {};
    // Every row is read; `Msg` collects the message rows' variants.
    (@rows []) => {};
    (@rows [$({
        $(#[$doc:meta])* $kind:ident $(($layout:ident { $($field:ident: $slot:literal),+ }))?
    })+]) => {
        /// Every message kind of this table, decoded.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Msg {
            $($(#[$doc])* $kind $(($layout))?,)+
        }
        impl Msg {
            /// The kind of `msg` and its fields, or `None` for a kind of
            /// another table.
            pub fn decode(msg: &$crate::types::Message) -> Option<Msg> {
                Some(match msg.mtype {
                    $($kind => Msg::$kind $(($layout { $($field: msg.params[$slot]),+ }))?,)+
                    _ => return None,
                })
            }
        }
    };
    (
        @rows [$($msgs:tt)*]
        $(#[$doc:meta])*
        value $kind:ident = $value:literal;
        $($rest:tt)*
    ) => {
        $(#[$doc])*
        pub const $kind: u32 = $value;
        $crate::protocol!(@rows [$($msgs)*] $($rest)*);
    };
    (
        @rows [$($msgs:tt)*]
        $(#[$doc:meta])*
        $dir:ident $kind:ident = $value:literal $(-> $reply:ident)?;
        $($rest:tt)*
    ) => {
        $crate::protocol!(@direction $dir $(-> $reply)?);
        $(#[$doc])*
        pub const $kind: u32 = $value;
        $crate::protocol!(@rows [$($msgs)* { $(#[$doc])* $kind }] $($rest)*);
    };
    (
        @rows [$($msgs:tt)*]
        $(#[$doc:meta])*
        $dir:ident $kind:ident = $value:literal $(-> $reply:ident)?,
        $layout:ident { $($field:ident: $slot:literal),+ $(,)? }
        $($rest:tt)*
    ) => {
        $crate::protocol!(@direction $dir $(-> $reply)?);
        $(#[$doc])*
        pub const $kind: u32 = $value;
        #[doc = concat!("The params of a [`", stringify!($kind), "`] message.")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $layout {
            $(
                #[doc = concat!("Slot ", stringify!($slot), ".")]
                pub $field: u64,
            )+
        }
        const _: () = $crate::layout::check_slots(&[$($slot),+]);
        impl $layout {
            /// The message of this kind, each field in its slot.
            pub fn into_message(self) -> $crate::types::Message {
                let mut msg = $crate::types::Message::new($kind);
                $(msg.params[$slot] = self.$field;)+
                msg
            }
            /// The fields of `msg`, or `None` if it is of another kind.
            pub fn from_message(msg: &$crate::types::Message) -> Option<Self> {
                (msg.mtype == $kind).then(|| $layout {
                    $($field: msg.params[$slot],)+
                })
            }
        }
        $crate::protocol!(
            @rows [$($msgs)* { $(#[$doc])* $kind ($layout { $($field: $slot),+ }) }]
            $($rest)*
        );
    };
    (@$($malformed:tt)*) => {
        compile_error!(concat!("malformed protocol! row: ", stringify!($($malformed)*)));
    };
    ($($rows:tt)*) => {
        $crate::protocol!(@rows [] $($rows)*);
    };
}

/// The compile-time check of one row's slots, run by
/// [`protocol!`](crate::protocol) in a const item: each slot is below 8
/// and no two fields share one.
pub const fn check_slots(slots: &[usize]) {
    let mut i = 0;
    while i < slots.len() {
        assert!(slots[i] < 8, "a message has eight params");
        let mut j = 0;
        while j < i {
            assert!(slots[j] != slots[i], "two fields share a slot");
            j += 1;
        }
        i += 1;
    }
}
