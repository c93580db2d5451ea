(** An empty stand-in for the label-algebra caches, which are gone.

    [bench/e2e] reads {!snapshots} and the [hits] / [misses] fields to
    report its [difc.cache_lookups_per_req] and [difc.cache_hit_ratio]
    per-layer metrics. That benchmark is versioned apart from the
    library, since its results are compared across commits, so this
    module stays until the benchmark stops reading it. There are no
    caches: {!snapshots} is always empty and both metrics read 0. *)

type snapshot = { hits : int; misses : int }

val snapshots : unit -> snapshot list
(** Always [[]]. *)
