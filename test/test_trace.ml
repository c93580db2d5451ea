(* Cross-provider tracing and federation health: the scripted
   3-provider scenario behind `w5 trace --federated` and `w5 health`.

   The golden tests pin the exact bytes the two commands print — the
   scenario runs on logical clocks and scripted fault plans, so any
   drift is a real behavior change, not noise. The QCheck property
   runs the same mesh under seeded (arbitrary) fault plans and checks
   that the merged forest is always well-formed: every recorded span
   appears exactly once, same-provider nesting respects that
   provider's clock, and every reattached remote continuation really
   points at the span it hangs under. The canary sweep proves the
   whole telemetry surface carries no user bytes: the synchronized
   records contain planted canary strings and no rendering — trace
   text/json/dot, health, SLO — may ever contain them. *)

open W5_obs
open W5_federation

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let contains = W5_http.Substring.contains

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs in _build/default/test; dune exec leaves the cwd
   at the workspace root. *)
let golden_path name =
  List.find Sys.file_exists [ "golden/" ^ name; "test/golden/" ^ name ]

(* One scripted run shared by the golden and canary tests — the
   scenario is deterministic, so sharing is safe and keeps the suite
   fast. *)
let scripted = lazy (Scenario.run ())

(* Byte-for-byte what `w5 trace --federated` prints (bin/w5 adds the
   same header around Trace_merge.to_text). *)
let federated_trace_text outcome =
  let forest = Trace_merge.merge outcome.Scenario.spans in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "federated trace: %s over %s (scripted faults on east~south)\n"
       Scenario.user
       (String.concat ", " Scenario.providers));
  List.iter
    (fun note -> Buffer.add_string buf (note ^ "\n"))
    outcome.Scenario.round_notes;
  Buffer.add_string buf
    (Printf.sprintf "merged spans: %d\n\n" (Trace_merge.span_count forest));
  Buffer.add_string buf (Trace_merge.to_text forest);
  Buffer.contents buf

(* Byte-for-byte what `w5 health` prints. *)
let health_text outcome =
  let mesh = outcome.Scenario.mesh in
  Health.render (Peer.health mesh) ~now:outcome.Scenario.health_now
  ^ "\n"
  ^ Health.Slo.render outcome.Scenario.slo ~now:outcome.Scenario.slo_now

let test_golden_trace () =
  let outcome = Lazy.force scripted in
  check string_c "byte-for-byte against the committed trace"
    (read_file (golden_path "trace_federated.txt"))
    (federated_trace_text outcome)

let test_golden_health () =
  let outcome = Lazy.force scripted in
  check string_c "byte-for-byte against the committed health report"
    (read_file (golden_path "health.txt"))
    (health_text outcome)

(* The scripted story, asserted structurally (so a legitimate golden
   refresh still has to preserve the narrative): retries with backoff,
   a crash_after_apply fault, the write-ahead recovery, and a Degraded
   verdict for the faulted edge with a breached SLO route. *)
let test_scripted_story () =
  let outcome = Lazy.force scripted in
  let text = federated_trace_text outcome in
  check bool_c "retry spans visible" true (contains text "sync.retry");
  check bool_c "drop faults visible" true (contains text "action=drop");
  check bool_c "crash fault visible" true
    (contains text "action=crash_after_apply");
  check bool_c "write-ahead recovery visible" true
    (contains text "sync.recover");
  check bool_c "cross-provider hops visible" true (contains text "(hop from");
  let h = Peer.health outcome.Scenario.mesh in
  let rows = Health.report h ~now:outcome.Scenario.health_now in
  let state_of observer peer =
    match
      List.find_opt
        (fun r ->
          r.Health.r_observer = observer && r.Health.r_peer = peer)
        rows
    with
    | Some r -> r.Health.r_state
    | None -> Alcotest.failf "no health row for %s -> %s" observer peer
  in
  check string_c "faulted edge degraded" "degraded"
    (Health.state_name (state_of "east" "south"));
  check string_c "clean edge healthy" "healthy"
    (Health.state_name (state_of "east" "west"));
  check bool_c "broken app breached its error budget" true
    (Health.Slo.breached outcome.Scenario.slo ~now:outcome.Scenario.slo_now);
  check int_c "degraded maps to exit 2" 2 (Health.severity Health.Degraded)

(* ---- canary sweep: no user bytes anywhere in the telemetry ---- *)

let test_canary_sweep () =
  let outcome = Lazy.force scripted in
  let forest = Trace_merge.merge outcome.Scenario.spans in
  let surfaces =
    [
      ("trace text", Trace_merge.to_text forest);
      ("trace json", Trace_merge.to_json forest);
      ("trace dot", Trace_merge.to_dot forest);
      ("health", health_text outcome);
    ]
  in
  List.iter
    (fun (name, body) ->
      check bool_c (name ^ " has spans or rows") true (String.length body > 0);
      List.iter
        (fun canary ->
          check bool_c
            (Printf.sprintf "%s leaks %s" name canary)
            false (contains body canary);
          (* even a prefix of the canary marker would be a leak *)
          check bool_c (name ^ " leaks a canary fragment") false
            (contains body "CANARY-"))
        Scenario.canaries)
    surfaces

(* ---- merged-forest well-formedness under arbitrary fault plans ---- *)

let rec count_spans (span : Span.t) =
  1 + List.fold_left (fun n c -> n + count_spans c) 0 span.Span.children

let input_span_count spans_by_provider =
  List.fold_left
    (fun n (_, spans) ->
      n + List.fold_left (fun n s -> n + count_spans s) 0 spans)
    0 spans_by_provider

(* Walk every parent/child edge of the forest. Local children live on
   their parent's clock; reattached remote continuations must carry a
   context naming exactly the span they hang under, and the handoff
   tick must fall inside the parent span's lifetime. *)
let check_edges forest =
  let rec go parent =
    List.iter
      (fun child ->
        (match child.Trace_merge.node_remote with
        | None ->
            if child.Trace_merge.node_provider <> parent.Trace_merge.node_provider
            then
              Alcotest.failf "local child crossed providers: %s under %s"
                child.Trace_merge.node_provider
                parent.Trace_merge.node_provider;
            let p = parent.Trace_merge.node_span
            and c = child.Trace_merge.node_span in
            if
              c.Span.start_tick < p.Span.start_tick
              || c.Span.end_tick > p.Span.end_tick
            then
              Alcotest.failf "child %s [t%d..t%d] outside parent %s [t%d..t%d]"
                c.Span.span_name c.Span.start_tick c.Span.end_tick
                p.Span.span_name p.Span.start_tick p.Span.end_tick
        | Some ctx ->
            if ctx.Trace_context.parent_origin <> parent.Trace_merge.node_provider
            then
              Alcotest.failf "hop parent origin %s but attached under %s"
                ctx.Trace_context.parent_origin
                parent.Trace_merge.node_provider;
            if
              ctx.Trace_context.parent_span
              <> parent.Trace_merge.node_span.Span.span_id
            then
              Alcotest.failf "hop parent span #%d but attached under #%d"
                ctx.Trace_context.parent_span
                parent.Trace_merge.node_span.Span.span_id;
            let p = parent.Trace_merge.node_span in
            if
              ctx.Trace_context.origin_tick < p.Span.start_tick
              || ctx.Trace_context.origin_tick > p.Span.end_tick
            then
              Alcotest.failf "handoff @t%d outside parent [t%d..t%d]"
                ctx.Trace_context.origin_tick p.Span.start_tick p.Span.end_tick);
        go child)
      parent.Trace_merge.node_children
  in
  List.iter go forest

let prop_merged_forest_well_formed =
  QCheck.Test.make ~name:"seeded scenario merges into a well-formed forest"
    ~count:12
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let outcome = Scenario.run_seeded ~seed in
      let forest = Trace_merge.merge outcome.Scenario.spans in
      (* conservation: merging moves subtrees, it never drops or
         duplicates a span (a cycle would also break this count by
         making the fold diverge) *)
      if
        Trace_merge.span_count forest
        <> input_span_count outcome.Scenario.spans
      then QCheck.Test.fail_report "span count changed across merge";
      check_edges forest;
      (* the canary must survive arbitrary fault plans too *)
      List.iter
        (fun (name, body) ->
          if contains body "CANARY-" then
            QCheck.Test.fail_report (name ^ " leaked user bytes"))
        [
          ("text", Trace_merge.to_text forest);
          ("json", Trace_merge.to_json forest);
        ];
      true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "golden federated trace byte-for-byte" `Quick
      test_golden_trace;
    Alcotest.test_case "golden health report byte-for-byte" `Quick
      test_golden_health;
    Alcotest.test_case "scripted story: faults, recovery, verdicts" `Quick
      test_scripted_story;
    Alcotest.test_case "canary sweep over every telemetry surface" `Quick
      test_canary_sweep;
  ]
  @ qsuite [ prop_merged_forest_well_formed ]
