(* Hot-path latency histograms over the logical clock.

   Durations are kernel-tick deltas, never wall time: a tick advances
   once per kernel crossing (plus simulated transport pauses), so the
   same workload yields byte-identical histograms on every machine —
   goldenable, diffable, and free of the covert timing channel a
   wall-clock histogram would open. Buckets are log-scaled because
   latencies are: a request is "about 2^k ticks", and doubling bounds
   keep the series count small under the registry's cardinality cap. *)

(* 0 (pure probes), then powers of two through 4096: a gateway request
   on the showcase society lands in the tens-to-hundreds of ticks, a
   faulty federation round with capped backoff in the low thousands. *)
let tick_buckets = [ 0; 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ]

let latency registry ?(help = "") name =
  Metrics.histogram registry ~help ~buckets:tick_buckets name

(* ---- quantiles from bucket counts ---- *)

(* An estimate derived from a cumulative histogram is an upper bound:
   "p95 <= 8 ticks" (the rank falls inside a finite bucket) or
   "p95 > 1024" (it falls in the implicit +Inf bucket). *)
type estimate =
  | Le of int  (** quantile is at most this declared bound *)
  | Gt of int  (** quantile exceeds the largest declared bound *)

let render_estimate = function
  | Le b -> string_of_int b
  | Gt b -> ">" ^ string_of_int b

(* [quantile ~bounds ~counts q] walks the per-bucket counts (one per
   declared bound, then the overflow bucket) to the bucket holding the
   [ceil (q * total)]-th observation. [None] when the series is empty. *)
let quantile ~bounds ~counts q =
  let total = List.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let last_bound = List.fold_left max 0 bounds in
    let rec go bounds counts cumulative =
      match counts with
      | [] -> Some (Gt last_bound)
      | c :: counts' -> (
          let cumulative = cumulative + c in
          if cumulative >= rank then
            match bounds with
            | b :: _ -> Some (Le b)
            | [] -> Some (Gt last_bound)
          else
            go (match bounds with [] -> [] | _ :: t -> t) counts' cumulative)
    in
    go bounds counts 0
  end

type summary = {
  q_labels : Metrics.labels;
  q_count : int;
  q_sum : int;
  q_p50 : estimate option;
  q_p95 : estimate option;
  q_p99 : estimate option;
}

let summary_of_series ~bounds ~counts ~sum ~count labels =
  {
    q_labels = labels;
    q_count = count;
    q_sum = sum;
    q_p50 = quantile ~bounds ~counts 0.50;
    q_p95 = quantile ~bounds ~counts 0.95;
    q_p99 = quantile ~bounds ~counts 0.99;
  }

(* Every histogram series in [registry], with derived quantiles, in
   the registry's stable dump order. *)
let summaries registry =
  List.concat_map
    (fun (s : Metrics.sample) ->
      match s.Metrics.sample_kind with
      | Metrics.Counter | Metrics.Gauge -> []
      | Metrics.Histogram ->
          List.filter_map
            (fun (labels, point) ->
              match point with
              | Metrics.Value _ -> None
              | Metrics.Histo { counts; sum; count } ->
                  Some
                    ( s.Metrics.sample_name,
                      summary_of_series ~bounds:s.Metrics.sample_buckets
                        ~counts ~sum ~count labels ))
            s.Metrics.sample_series)
    (Metrics.dump registry)
