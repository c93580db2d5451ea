(** Request tracing over the kernel's logical clock.

    The tracer keeps a stack of open spans; {!start_span} nests under
    the innermost open span, and finishing a {e root} span moves the
    whole tree into a bounded ring of completed traces. Disabled (the
    default) every operation is a constant-time no-op, so the
    instrumented hot paths cost one branch when nobody is looking.

    Ticks are supplied by the caller (normally
    [W5_os.Kernel.tick]) — the tracer itself has no clock, which keeps
    this library dependency-free and the recorded durations logical. *)

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] (default 16) bounds the ring of {e completed} traces:
    the oldest trace is dropped when a new root finishes beyond the
    cap — an O(1) overwrite of the ring's oldest slot, so tracing at
    capacity costs the same as tracing below it. [enabled] defaults to
    [false]. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_on_drop : t -> (int -> unit) -> unit
(** Called with the number of roots evicted each time the ring drops a
    completed trace — how the kernel mirrors eviction into the
    [w5_trace_dropped_total] counter without this library depending on
    {!Metrics} wiring. Default: ignore. *)

val start_span :
  t -> tick:int -> ?fields:(string * string) list -> string -> unit
(** Open a span named after the current operation, nested under the
    innermost open span (a new root otherwise). No-op when disabled. *)

val annotate : t -> (string * string) list -> unit
(** Attach data-free fields to the innermost open span. *)

val end_span : t -> tick:int -> unit
(** Close the innermost open span. Closing the last open span commits
    the trace. Unbalanced calls are ignored. *)

val event :
  t -> tick:int -> ?fields:(string * string) list -> string -> unit
(** An instantaneous child span (start = end = [tick]): flow-check
    decisions, export verdicts. *)

val with_span :
  t -> clock:(unit -> int) -> ?fields:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [with_span t ~clock name f] brackets [f] in a span; the span is
    closed (at the clock's then-current tick) even if [f] raises. *)

val handoff :
  t -> origin:string -> tick:int -> into:t -> clock:(unit -> int) ->
  fields:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [handoff t ~origin ~tick ~into ~clock ~fields name f] runs [f], work
    that [t]'s innermost open span hands to a peer provider whose
    tracer is [into]. On [into], [f] runs in a span that is a {e root}
    (any open local stack is set aside and restored, even on raise),
    timed by [into]'s [clock]. The span carries the {!Trace_context}
    [t] hands over, as {!Trace_context.to_fields} fields before
    [fields]: parented under [t]'s innermost open span on provider
    [origin], handed over at [tick] on [origin]'s clock, and rooted at
    [t]'s current trace. A root that is
    itself a remote continuation forwards the {e original} trace
    identity, so multi-hop chains stay one trace. {!Trace_merge} uses
    these fields to reattach the subtree under its cross-provider
    parent. When [t] has no open span, or either tracer is disabled,
    [f] runs without a span. *)

val open_depth : t -> int
(** How many spans are currently open (0 = between requests). *)

val traces : t -> Span.t list
(** Completed root spans, oldest first. *)

val latest : t -> Span.t option

val dropped : t -> int
(** How many completed traces have been evicted from the ring since
    creation (or the last {!clear}) — the tracing analogue of audit
    eviction: when it is non-zero, [traces] is a suffix of the true
    history. *)

val clear : t -> unit
(** Drop completed traces and abandon any open stack. *)
