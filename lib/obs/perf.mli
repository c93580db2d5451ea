(** Hot-path latency histograms and derived quantiles.

    Latency here is {e logical}: durations are kernel-tick deltas, so
    the same workload produces byte-identical histograms everywhere —
    no wall clock, no covert timing channel, goldenable output. The
    module supplies the shared log-scaled bucket ladder and p50/p95/p99
    estimation from bucket counts (used by the exposition layer and
    [w5 stats]). *)

val tick_buckets : int list
(** The shared bucket ladder for tick-latency histograms: [0], then
    powers of two through [4096]. *)

val latency : Metrics.t -> ?help:string -> string -> Metrics.metric
(** Register (or look up) a latency histogram on {!tick_buckets}. *)

(** {1 Quantiles from bucket counts} *)

type estimate =
  | Le of int  (** the quantile is at most this declared bound *)
  | Gt of int  (** the quantile exceeds the largest declared bound *)

val render_estimate : estimate -> string
(** [Le 8 -> "8"], [Gt 1024 -> ">1024"]. *)

val quantile : bounds:int list -> counts:int list -> float -> estimate option
(** [quantile ~bounds ~counts q] estimates the [q]-quantile (0 < q <= 1)
    of a histogram from its per-bucket counts ([counts] has one entry
    per bound plus the overflow bucket). [None] iff the series is
    empty. The estimate is the upper bound of the bucket containing
    the [ceil (q * count)]-th observation. *)

type summary = {
  q_labels : Metrics.labels;
  q_count : int;
  q_sum : int;
  q_p50 : estimate option;
  q_p95 : estimate option;
  q_p99 : estimate option;
}

val summary_of_series :
  bounds:int list -> counts:int list -> sum:int -> count:int ->
  Metrics.labels -> summary

val summaries : Metrics.t -> (string * summary) list
(** Every histogram series in the registry with derived quantiles, in
    the registry's stable dump order (metric name, then label set). *)
