//! The counter table: one declaration per set of monotonic counters.

/// Declares a set of `Relaxed` event counters once and derives everything
/// a metrics surface needs from that one list.
///
/// Each counter is written once, as a field of the atomic cell struct:
/// its doc line, its visibility inside the cell, its name and its cell
/// type (whose `load` must yield `u64`). A `snapshot` line after the cell
/// names the public `Copy` snapshot struct. The table expands to:
///
/// - the cell struct (`Default`, `Debug`), with the fields as declared;
/// - the snapshot struct (`Clone`, `Copy`, `Default`, `Debug`,
///   `PartialEq`, `Eq`), with one `pub u64` field per counter carrying the
///   same name and doc;
/// - `Cell::snapshot()`, which loads every counter `Relaxed` (each counter
///   is an independent tally, so a snapshot is not a cut across them);
/// - `Snapshot::delta`, `Snapshot::merge` and `Snapshot::fields`, the
///   `(name, value)` pairs in declaration order that JSON output walks.
///
/// Attributes before `snapshot` (docs, extra derives) go to the snapshot
/// struct. Increment sites keep using the cell fields directly
/// (`stats.puts.fetch_add(1, Ordering::Relaxed)`).
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// lsm_obs::counter_table! {
///     /// Shared cells.
///     pub struct Cells {
///         /// Requests served.
///         pub served: AtomicU64,
///         /// Requests refused.
///         pub refused: AtomicU64,
///     }
///     /// A copy of [`Cells`].
///     snapshot Counts;
/// }
///
/// let cells = Cells::default();
/// cells.served.fetch_add(3, Ordering::Relaxed);
/// let now = cells.snapshot();
/// assert_eq!(now.delta(&Counts::default()), now);
/// assert_eq!(now.fields(), [("served", 3), ("refused", 0)]);
/// ```
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$cmeta:meta])*
        $cvis:vis struct $cell:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $name:ident : $cty:ty
            ),+ $(,)?
        }
        $(#[$smeta:meta])*
        snapshot $snap:ident;
    ) => {
        $(#[$cmeta])*
        #[derive(Default, Debug)]
        $cvis struct $cell {
            $( $(#[$fmeta])* $fvis $name: $cty, )+
        }

        $(#[$smeta])*
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$fmeta])* pub $name: u64, )+
        }

        impl $cell {
            /// Copies every counter.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        impl $snap {
            /// Counter increments between `earlier` and `self`.
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $name: self.$name - earlier.$name, )+
                }
            }

            /// Accumulates `other` into `self` (every field is a sum-friendly
            /// counter, so per-shard copies add up to the whole).
            pub fn merge(&mut self, other: &$snap) {
                $( self.$name += other.$name; )+
            }

            /// `(name, value)` for every counter, in declaration order.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($name)),+].len()] {
                [$( (stringify!($name), self.$name), )+]
            }
        }
    };
}
