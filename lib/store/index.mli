(** Label-aware secondary indexes for the object store.

    A per-collection, per-kernel side table mapping declared field
    values to object ids, consulted by {!Query.select} to shrink the
    set of rows it must read. The index is {b never} a source of
    truth: it is an untrusted hint. Before any candidate row is
    served, the querying process absorbs the whole collection's label
    {!summary} (exactly the taint a full scan would have imposed), and
    every candidate is re-read through {!W5_os.Syscall.read_file_taint}
    with the predicate re-applied — so a stale, corrupt or adversarial
    index can cost performance, never secrecy, integrity or
    correctness. See DESIGN.md ("Indexed queries").

    Consistency is self-checked against the filesystem: each entry is
    stamped with the collection directory's [(generation, version)]
    pair, which {!W5_os.Fs} bumps on any mutation beneath the
    directory — {!Obj_store}'s own puts and deletes as well as writes
    that bypass it, such as federation sync or a snapshot restore. A
    stale stamp makes the next use rebuild the entry from the
    filesystem; no write patches it.

    Telemetry records sizes and outcomes only (hit/fallback/rebuild
    counts, candidate-set cardinalities) — field names and values are
    application data and never appear as label values. *)

open W5_difc
open W5_os

type kind =
  | Equality   (** exact-match postings on a string field *)
  | Int_order  (** ordered postings on an integer field *)

(** An indexable predicate atom, as recognized by the planner. *)
type atom =
  | Eq of string * string
  | At_least of string * int

val declare : Kernel.ctx -> collection:string -> field:string -> kind -> unit
(** Declare [field] indexed in [collection] (idempotent). Takes effect
    at the next query against the collection. Declaring is advisory —
    queries on undeclared fields simply scan. *)

val summary : Kernel.t -> collection:string -> Flow.labels option
(** The join of every row's labels (secrecy union, integrity meet)
    plus the lookup path's taint — i.e. exactly what a full tainting
    scan of the collection would absorb into the caller. [None] when
    the collection is empty (a scan of nothing absorbs nothing).
    The join is the one the last rebuild computed, rebuilding first
    if the entry is stale; the path taint is re-read on every call. *)

val plan :
  Kernel.t -> collection:string -> atom list ->
  (string list, string) result
(** Candidate ids (sorted, deduplicated) for the first atom that has a
    usable index, or [Error reason] ([reason] is low-cardinality:
    ["undeclared"], ["unindexable"]). Candidates are a superset of the
    matching rows {e for that atom alone}; the caller must re-read and
    re-filter. Collections containing stray sub-directories or
    non-canonical on-disk names are refused — a scan behaves
    differently there, and the two paths must stay equivalent. *)

val meter_query_fallback : Kernel.t -> string -> unit
(** Count a scan fallback under
    [w5_store_index_fallbacks_total{reason}]. *)
