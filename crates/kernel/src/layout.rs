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
//! <direction> NAME = <value> [-> REPLY], Layout { field: slot [as Type], .. }
//! ```
//!
//! * `direction` is `request` (answered by `REPLY`, a kind of the same
//!   table), `reply`, `oneway`, or `value` (a tagged number such as an
//!   evidence class, never a message);
//! * every row declares `pub const NAME: u32`;
//! * a row with fields also declares `Layout`, a `Copy` struct of one
//!   member per field, with `into_message` (the kind's message, each field
//!   from its slot on and every other slot zero) and `from_message` (the
//!   fields of a message of this kind, `None` for any other kind). A
//!   payload rides in `data`, outside the layout;
//! * a field is a `u64` in its one slot unless the row names its type
//!   (`field: slot as Type`). A typed field fills the slots its [`Field`]
//!   implementation says, from the one the row names: an [`Endpoint`] or
//!   an `Option<Endpoint>` is the slot then the generation, and an
//!   `Option<RecoveryId>` or an `Option<SpanId>` is the episode id, 0 for
//!   none. How a value sits in a message is written once, here;
//! * a table with message rows also declares `Msg`, one variant per
//!   `request`, `reply` and `oneway` row, named as the row and carrying its
//!   layout if it has one. `Msg::decode` dispatches on a message's kind
//!   and returns its variant, or `None` for a kind of another table. A
//!   receiver matches the variants, so the compiler checks that it lists
//!   every kind, and no arm reads a slot of a kind it does not handle.
//!
//! The compiler checks what a comment could only claim. A field that fills
//! slot 8 or beyond, two fields that fill one slot, a request without a
//! reply, a reply that names no kind and an unknown direction all fail the
//! build; two rows of one table with one value are an unreachable pattern
//! in `decode`, which `-D warnings` rejects. `phoenix-analyze` reads the
//! same rows for its conformance report, and holds every message value of
//! the workspace distinct.
//!
//! ```
//! mod ping {
//!     use phoenix_kernel::types::Endpoint;
//!     phoenix_kernel::protocol! {
//!         /// Are you there? The reply echoes the nonce.
//!         request PING = 0x100 -> PONG, Ping { nonce: 0, from: 1 as Endpoint }
//!         /// The echo.
//!         reply PONG = 0x101, Pong { nonce: 0 }
//!         /// Goodbye; nothing in the params.
//!         oneway BYE = 0x102;
//!     }
//! }
//! use phoenix_kernel::types::Endpoint;
//!
//! let ping = ping::Ping { nonce: 7, from: Endpoint::new(3, 1) };
//! let msg = ping.into_message();
//! assert_eq!((msg.mtype, msg.params), (ping::PING, [7, 3, 1, 0, 0, 0, 0, 0]));
//! assert_eq!(ping::Ping::from_message(&msg), Some(ping));
//! assert_eq!(ping::Pong::from_message(&msg), None);
//!
//! // A receiver names every kind of its table; `None` is a foreign kind.
//! let answer = |msg| match ping::Msg::decode(msg) {
//!     Some(ping::Msg::PING(ping::Ping { nonce, .. })) => Some(nonce),
//!     Some(ping::Msg::PONG(_) | ping::Msg::BYE) | None => None,
//! };
//! assert_eq!(answer(&msg), Some(7));
//! assert_eq!(answer(&phoenix_kernel::types::Message::new(0x200)), None);
//! ```

use phoenix_simcore::trace::{RecoveryId, SpanId};

use crate::types::Endpoint;

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
/// A two-slot field whose second slot another field holds:
///
/// ```compile_fail,E0080
/// use phoenix_kernel::types::Endpoint;
/// phoenix_kernel::protocol! {
///     oneway KILL = 1, Kill { target: 0 as Endpoint, signal: 1 }
/// }
/// ```
///
/// A two-slot field from the last slot on:
///
/// ```compile_fail,E0080
/// use phoenix_kernel::types::Endpoint;
/// phoenix_kernel::protocol! {
///     oneway KILL = 1, Kill { signal: 0, target: 7 as Endpoint }
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
    // A field's type: `u64` unless the row names one.
    (@type) => { u64 };
    (@type $ty:ty) => { $ty };
    // Every row is read; `Msg` collects the message rows' variants.
    (@rows []) => {};
    (@rows [$({ $(#[$doc:meta])* $kind:ident $(($layout:ident))? })+]) => {
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
                    $($kind => Msg::$kind $(($layout::from_message(msg)?))?,)+
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
        $layout:ident { $($field:ident: $slot:literal $(as $ty:ty)?),+ $(,)? }
        $($rest:tt)*
    ) => {
        $crate::protocol!(@direction $dir $(-> $reply)?);
        $(#[$doc])*
        pub const $kind: u32 = $value;
        #[doc = concat!("The params of a [`", stringify!($kind), "`] message.")]
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $layout {
            $(
                #[doc = concat!("Slot ", stringify!($slot), $(" on, as `", stringify!($ty), "`",)? ".")]
                pub $field: $crate::protocol!(@type $($ty)?),
            )+
        }
        const _: () = $crate::layout::check_slots(&[$(
            ($slot, <$crate::protocol!(@type $($ty)?) as $crate::layout::Field>::SLOTS)
        ),+]);
        impl $layout {
            /// The message of this kind, each field from its slot on.
            pub fn into_message(self) -> $crate::types::Message {
                let mut msg = $crate::types::Message::new($kind);
                $($crate::layout::Field::write(self.$field, &mut msg.params, $slot);)+
                msg
            }
            /// The fields of `msg`, or `None` if it is of another kind.
            pub fn from_message(msg: &$crate::types::Message) -> Option<Self> {
                (msg.mtype == $kind).then(|| $layout {
                    $($field: $crate::layout::Field::read(&msg.params, $slot),)+
                })
            }
        }
        $crate::protocol!(
            @rows [$($msgs)* { $(#[$doc])* $kind ($layout) }]
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

/// The type of a row field: how many slots it fills, from the one its row
/// names, and how its value is written into them and read back. Every
/// value a message carries in its params is one of these implementations.
pub trait Field: Sized {
    /// The slots a field of this type fills.
    const SLOTS: usize;
    /// Writes `self` into `params` from slot `at` on.
    fn write(self, params: &mut [u64; 8], at: usize);
    /// The value [`Field::write`] wrote into `params` from slot `at` on.
    fn read(params: &[u64; 8], at: usize) -> Self;
}

/// A number, as it is.
impl Field for u64 {
    const SLOTS: usize = 1;
    fn write(self, params: &mut [u64; 8], at: usize) {
        params[at] = self;
    }
    fn read(params: &[u64; 8], at: usize) -> Self {
        params[at]
    }
}

/// The slot, then the generation; a wider number is truncated to each.
impl Field for Endpoint {
    const SLOTS: usize = 2;
    fn write(self, params: &mut [u64; 8], at: usize) {
        params[at] = u64::from(self.slot());
        params[at + 1] = u64::from(self.generation());
    }
    fn read(params: &[u64; 8], at: usize) -> Self {
        Endpoint::new(params[at] as u16, params[at + 1] as u32)
    }
}

/// As an [`Endpoint`], with `None` as (0, 0), which the kernel never
/// issues: generations start at 1.
impl Field for Option<Endpoint> {
    const SLOTS: usize = 2;
    fn write(self, params: &mut [u64; 8], at: usize) {
        self.unwrap_or_default().write(params, at);
    }
    fn read(params: &[u64; 8], at: usize) -> Self {
        (params[at] != 0 || params[at + 1] != 0).then(|| Endpoint::read(params, at))
    }
}

/// The recovery episode's id, 0 for none.
impl Field for Option<RecoveryId> {
    const SLOTS: usize = 1;
    fn write(self, params: &mut [u64; 8], at: usize) {
        params[at] = self.map_or(0, RecoveryId::as_u64);
    }
    fn read(params: &[u64; 8], at: usize) -> Self {
        RecoveryId::from_wire(params[at])
    }
}

/// The span's id, 0 for none.
impl Field for Option<SpanId> {
    const SLOTS: usize = 1;
    fn write(self, params: &mut [u64; 8], at: usize) {
        params[at] = self.map_or(0, SpanId::as_u64);
    }
    fn read(params: &[u64; 8], at: usize) -> Self {
        SpanId::from_wire(params[at])
    }
}

/// The compile-time check of one row's fields, each `(slot, slots it
/// fills)`, run by [`protocol!`](crate::protocol) in a const item: every
/// slot a field fills is below 8 and no two fields fill one.
pub const fn check_slots(fields: &[(usize, usize)]) {
    let (mut used, mut i) = (0u8, 0);
    while i < fields.len() {
        let (at, width) = fields[i];
        assert!(at + width <= 8, "a message has eight params");
        let filled = (((1u16 << width) - 1) << at) as u8;
        assert!(used & filled == 0, "two fields share a slot");
        used |= filled;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `value` written from slot `at` on into zeroed params, then read back.
    fn round_trip<T: Field + Copy>(value: T, at: usize) -> ([u64; 8], T) {
        let mut params = [0; 8];
        value.write(&mut params, at);
        (params, T::read(&params, at))
    }

    #[test]
    fn every_field_type_reads_back_what_it_wrote() {
        assert_eq!(
            round_trip(u64::MAX, 7),
            ([0, 0, 0, 0, 0, 0, 0, u64::MAX], u64::MAX)
        );
        let widest = Endpoint::new(u16::MAX, u32::MAX);
        let (params, back) = round_trip(widest, 6);
        assert_eq!(
            (params, back),
            ([0, 0, 0, 0, 0, 0, 0xFFFF, 0xFFFF_FFFF], widest)
        );
        let some = Some(Endpoint::new(0, 1));
        assert_eq!(round_trip(some, 0), ([0, 1, 0, 0, 0, 0, 0, 0], some));
        assert_eq!(round_trip(None::<Endpoint>, 3), ([0; 8], None));
        let rid = RecoveryId::from_wire(9);
        assert_eq!(round_trip(rid, 2), ([0, 0, 9, 0, 0, 0, 0, 0], rid));
        assert_eq!(round_trip(None::<RecoveryId>, 2), ([0; 8], None));
        let span = SpanId::from_wire(u64::MAX);
        assert_eq!(round_trip(span, 4), ([0, 0, 0, 0, u64::MAX, 0, 0, 0], span));
        assert_eq!(round_trip(None::<SpanId>, 4), ([0; 8], None));
    }

    #[test]
    fn an_endpoint_is_truncated_and_only_zero_zero_is_none() {
        let params = [0x1_0005, 0x1_0000_0009, 0x1_0000, 0, 0, 0, 0, 0];
        assert_eq!(<Endpoint as Field>::read(&params, 0), Endpoint::new(5, 9));
        assert_eq!(
            Option::<Endpoint>::read(&params, 2),
            Some(Endpoint::new(0, 0))
        );
        assert_eq!(Option::<Endpoint>::read(&params, 3), None);
    }
}
