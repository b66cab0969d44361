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
//!   `data`, outside the layout.
//!
//! The compiler checks what a comment could only claim. A field in slot 8
//! or beyond, two fields in one slot, a request without a reply, a reply
//! that names no kind and an unknown direction all fail the build.
//! `phoenix-analyze` reads the same rows for its conformance report.
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
#[macro_export]
macro_rules! protocol {
    (@direction request -> $reply:ident) => {
        const _: u32 = $reply;
    };
    (@direction reply) => {};
    (@direction oneway) => {};
    (@direction value) => {};
    () => {};
    (
        $(#[$doc:meta])*
        $dir:ident $kind:ident = $value:literal $(-> $reply:ident)?;
        $($rest:tt)*
    ) => {
        $crate::protocol!(@direction $dir $(-> $reply)?);
        $(#[$doc])*
        pub const $kind: u32 = $value;
        $crate::protocol!($($rest)*);
    };
    (
        $(#[$doc:meta])*
        $dir:ident $kind:ident = $value:literal $(-> $reply:ident)?,
        $layout:ident { $($field:ident: $slot:literal),+ $(,)? }
        $($rest:tt)*
    ) => {
        $crate::protocol!($(#[$doc])* $dir $kind = $value $(-> $reply)?;);
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
        $crate::protocol!($($rest)*);
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
