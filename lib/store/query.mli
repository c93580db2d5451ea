(** The covert-channel-safe query engine.

    §3.5 of the paper notes that "the SQL interface to databases can
    leak information implicitly and thus needs to be replaced under
    W5". The leak is through result {e shape}: whether a row appears
    in (or is absent from) a result tells the querier something about
    data it may not be tainted by.

    The replacement rule implemented here: a query taints the caller
    with the join of the labels of {b every row in the collection} —
    the collection's label summary — before any row is served. Absence
    then carries no exploitable signal: by the time the caller learns
    the shape, it is already tainted by everything that could have
    shaped it and cannot export the knowledge. Because the taint is
    settled up front and does not depend on which rows are actually
    visited, evaluation is free to visit {e fewer} rows: the planner
    consults {!Index} for candidate ids when the predicate contains an
    indexable conjunct, and [limit] stops the walk early. Every
    candidate is still re-read through the syscall layer with the full
    predicate re-applied — the index can never bypass a label check or
    serve a stale row (see DESIGN.md, "Indexed queries").

    {!select_leaky} implements the classic (unsafe) semantics — skip
    rows the caller cannot read — and exists only as the baseline arm
    of experiment E8 and its ablation bench.

    Every visited row also costs CPU quota, so a malicious query
    cannot monopolize the database (§3.5 "resource allocation"): it
    dies by quota instead. *)

open W5_os

type id = string

type predicate
(** Reified so the planner can recognize indexable atoms; apply one
    with {!eval}. *)

val always : predicate
val field_equals : string -> string -> predicate
val field_contains : string -> string -> predicate
(** Substring match on the field's value; absent field never matches. *)

val field_int_at_least : string -> int -> predicate
val has_field : string -> predicate
val ( &&& ) : predicate -> predicate -> predicate
val ( ||| ) : predicate -> predicate -> predicate
val not_ : predicate -> predicate

val custom : (Record.t -> bool) -> predicate
(** An opaque predicate: always evaluated by scan, never indexed. *)

val eval : predicate -> Record.t -> bool

val select :
  ?limit:int -> ?use_index:bool -> Kernel.ctx -> collection:string ->
  where:predicate -> ((id * Record.t) list, Os_error.t) result
(** Safe semantics: absorb the collection's label summary, then return
    decoded matches in id order. Rows that fail to decode are skipped.

    [limit] short-circuits the walk once that many rows match; the
    taint (already settled) is unaffected, so pagination no longer
    costs a full read of the collection.

    [use_index] (default [true]) lets the planner serve candidates
    from {!Index} when the predicate's conjunction spine contains a
    [field_equals] or [field_int_at_least] atom over a declared field.
    [~use_index:false] forces the scan path — results are identical by
    construction (the equivalence property test holds the two paths to
    that), only the number of rows visited differs. *)

val select_leaky :
  Kernel.ctx -> collection:string -> where:predicate ->
  ((id * Record.t) list, Os_error.t) result
(** Unsafe baseline: strict reads, silently skipping rows the caller
    may not see. Result shape leaks. Kept for experiment E8 only. *)

val count :
  Kernel.ctx -> collection:string -> where:predicate ->
  (int, Os_error.t) result
(** [List.length] of {!select}, with the same taint semantics. *)
