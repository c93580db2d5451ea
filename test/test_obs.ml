(* Tests for the label-safe telemetry library: metric semantics, the
   cardinality cap, span nesting, exposition goldens — and the
   telemetry rule itself: no user bytes in any rendered output. *)

open W5_difc
open W5_obs
open W5_platform

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let contains = W5_http.Substring.contains

(* ---- counters, gauges, histograms ---- *)

let test_counter_semantics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c_total" in
  Metrics.inc c ~labels:[ ("route", "home") ];
  Metrics.inc c ~labels:[ ("route", "home") ] ~by:2;
  Metrics.inc c ~labels:[ ("route", "login") ];
  Metrics.inc c;
  check int_c "home series" 3 (Metrics.value c ~labels:[ ("route", "home") ]);
  check int_c "login series" 1 (Metrics.value c ~labels:[ ("route", "login") ]);
  check int_c "unlabeled series" 1 (Metrics.value c);
  check int_c "missing series reads 0" 0
    (Metrics.value c ~labels:[ ("route", "nope") ]);
  (* label order must not mint a second series *)
  let d = Metrics.counter r "d_total" in
  Metrics.inc d ~labels:[ ("a", "1"); ("b", "2") ];
  Metrics.inc d ~labels:[ ("b", "2"); ("a", "1") ];
  check int_c "label order canonicalized" 2
    (Metrics.value d ~labels:[ ("b", "2"); ("a", "1") ]);
  check int_c "series count" 4 (Metrics.series_count r)

let test_gauge_semantics () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "g" in
  Metrics.set g 7;
  check int_c "set" 7 (Metrics.value g);
  Metrics.inc g ~by:(-2);
  check int_c "inc by negative" 5 (Metrics.value g)

let test_histogram_semantics () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:[ 1; 2; 4 ] "h" in
  List.iter (Metrics.observe h) [ 1; 2; 2; 3; 100 ];
  check int_c "count" 5 (Metrics.histogram_count h);
  check int_c "sum" 108 (Metrics.histogram_sum h);
  match Metrics.dump r with
  | [ { Metrics.sample_series = [ (_, Metrics.Histo { counts; _ }) ]; _ } ] ->
      (* per-bucket (non-cumulative): <=1, <=2, <=4, +Inf *)
      check (Alcotest.list int_c) "bucket counts" [ 1; 2; 1; 1 ] counts
  | _ -> Alcotest.fail "expected one histogram with one series"

let test_kind_conflict () =
  let r = Metrics.create () in
  let c = Metrics.counter r "same" in
  let c' = Metrics.counter r "same" in
  Metrics.inc c;
  Metrics.inc c';
  check int_c "re-registration shares state" 2 (Metrics.value c);
  Alcotest.check_raises "kind mismatch raises"
    (Invalid_argument "metric same: registered with a different kind")
    (fun () -> ignore (Metrics.gauge r "same"))

let test_cardinality_cap () =
  let r = Metrics.create ~max_series:2 () in
  let c = Metrics.counter r "per_user_total" in
  List.iter
    (fun u -> Metrics.inc c ~labels:[ ("user", u) ])
    [ "a"; "b"; "c"; "d"; "e" ];
  check int_c "first series intact" 1
    (Metrics.value c ~labels:[ ("user", "a") ]);
  check int_c "overflow series absorbs the rest" 3
    (Metrics.value c ~labels:[ ("w5_capped", "true") ]);
  check int_c "capped label set never created" 0
    (Metrics.value c ~labels:[ ("user", "c") ]);
  check int_c "overflow updates counted" 3 (Metrics.overflowed r);
  (* the dashboard shows the cap was hit, not the attacker's names *)
  let dump = Exposition.prometheus r in
  check bool_c "exposition names the overflow" true
    (contains dump "w5_capped=\"true\"");
  check bool_c "dropped label value absent" false (contains dump "user=\"c\"")

let test_disabled_registry () =
  let r = Metrics.create ~enabled:false () in
  let c = Metrics.counter r "quiet_total" in
  Metrics.inc c ~by:5;
  check int_c "disabled drops updates" 0 (Metrics.value c);
  check int_c "no series materialized" 0 (Metrics.series_count r);
  Metrics.set_enabled r true;
  Metrics.inc c ~by:5;
  check int_c "re-enabled counts" 5 (Metrics.value c)

(* ---- spans and the tracer ---- *)

let test_span_nesting () =
  let tick = ref 10 in
  let clock () = !tick in
  let tr = Tracer.create ~enabled:true () in
  let result =
    Tracer.with_span tr ~clock "gateway:demo" (fun () ->
        tick := 12;
        Tracer.with_span tr ~clock "sys.fs.read" (fun () ->
            tick := 13;
            Tracer.event tr ~tick:!tick "flow.check"
              ~fields:[ ("decision", "allow") ];
            tick := 14;
            "payload")
        |> fun r ->
        tick := 15;
        Tracer.annotate tr [ ("status", "200") ];
        r)
  in
  check string_c "with_span returns the body's value" "payload" result;
  check int_c "everything closed" 0 (Tracer.open_depth tr);
  match Tracer.latest tr with
  | None -> Alcotest.fail "no trace recorded"
  | Some root ->
      check string_c "root name" "gateway:demo" root.Span.span_name;
      check int_c "root duration" 5 (Span.duration root);
      check int_c "tree size" 3 (Span.descendant_count root);
      (match root.Span.children with
      | [ child ] -> (
          check string_c "child name" "sys.fs.read" child.Span.span_name;
          check int_c "child duration" 2 (Span.duration child);
          match child.Span.children with
          | [ ev ] ->
              check string_c "event name" "flow.check" ev.Span.span_name;
              check int_c "event instantaneous" 0 (Span.duration ev)
          | _ -> Alcotest.fail "expected one event under the syscall")
      | _ -> Alcotest.fail "expected one child under the root");
      check bool_c "root annotated" true
        (List.mem ("status", "200") root.Span.span_fields)

let test_span_exception_safety () =
  let tr = Tracer.create ~enabled:true () in
  (try
     Tracer.with_span tr ~clock:(fun () -> 1) "doomed" (fun () ->
         failwith "boom")
   with Failure _ -> ());
  check int_c "span closed on raise" 0 (Tracer.open_depth tr);
  check int_c "trace still committed" 1 (List.length (Tracer.traces tr))

let test_tracer_disabled_and_ring () =
  let tr = Tracer.create () in
  Tracer.start_span tr ~tick:1 "ignored";
  Tracer.end_span tr ~tick:2;
  check int_c "disabled records nothing" 0 (List.length (Tracer.traces tr));
  let tr = Tracer.create ~enabled:true ~capacity:2 () in
  List.iter
    (fun name ->
      Tracer.start_span tr ~tick:0 name;
      Tracer.end_span tr ~tick:1)
    [ "one"; "two"; "three" ];
  check
    (Alcotest.list string_c)
    "ring keeps the newest" [ "two"; "three" ]
    (List.map (fun (s : Span.t) -> s.Span.span_name) (Tracer.traces tr))

let test_tracer_dropped_counter () =
  let tr = Tracer.create ~enabled:true ~capacity:2 () in
  check int_c "fresh tracer dropped nothing" 0 (Tracer.dropped tr);
  List.iter
    (fun name ->
      Tracer.start_span tr ~tick:0 name;
      Tracer.end_span tr ~tick:1)
    [ "one"; "two"; "three"; "four" ];
  check int_c "evictions counted" 2 (Tracer.dropped tr);
  check bool_c "traces exposition reports the drops" true
    (contains (Exposition.traces tr) "(2 older traces dropped)");
  Tracer.clear tr;
  check int_c "clear resets the counter" 0 (Tracer.dropped tr);
  check bool_c "no notice once cleared" false
    (contains (Exposition.traces tr) "dropped")

let test_unbalanced_end_span () =
  let tr = Tracer.create ~enabled:true () in
  (* closing with nothing open is a no-op, not a crash or a trace *)
  Tracer.end_span tr ~tick:5;
  check int_c "still nothing open" 0 (Tracer.open_depth tr);
  check int_c "nothing committed" 0 (List.length (Tracer.traces tr));
  (* and it does not poison later, balanced use *)
  Tracer.start_span tr ~tick:6 "real";
  Tracer.end_span tr ~tick:7;
  Tracer.end_span tr ~tick:8;
  check int_c "balanced span still commits" 1 (List.length (Tracer.traces tr))

let test_with_span_nested_exception () =
  let tr = Tracer.create ~enabled:true () in
  let clock = let t = ref 0 in fun () -> incr t; !t in
  (try
     Tracer.with_span tr ~clock "root" (fun () ->
         Tracer.with_span tr ~clock "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check int_c "both spans closed" 0 (Tracer.open_depth tr);
  (match Tracer.traces tr with
  | [ root ] ->
      check string_c "root committed" "root" root.Span.span_name;
      check int_c "inner recorded under root" 1
        (List.length root.Span.children)
  | l -> Alcotest.failf "expected exactly the root trace, got %d" (List.length l));
  (* the tracer is reusable after the exception unwound through it *)
  Tracer.with_span tr ~clock "after" (fun () -> ());
  check int_c "subsequent trace commits" 2 (List.length (Tracer.traces tr))

(* ---- exposition goldens ---- *)

let golden_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~help:"requests" "demo_requests_total" in
  Metrics.inc c ~labels:[ ("route", "home") ];
  Metrics.inc c ~labels:[ ("route", "home") ] ~by:2;
  Metrics.inc c ~labels:[ ("route", "login") ];
  let h = Metrics.histogram r ~help:"ticks" ~buckets:[ 1; 2 ] "demo_ticks" in
  List.iter (Metrics.observe h) [ 1; 2; 5 ];
  r

let test_prometheus_golden () =
  let expected =
    "# HELP demo_requests_total requests\n\
     # TYPE demo_requests_total counter\n\
     demo_requests_total{route=\"home\"} 3\n\
     demo_requests_total{route=\"login\"} 1\n\
     # HELP demo_ticks ticks\n\
     # TYPE demo_ticks histogram\n\
     demo_ticks_bucket{le=\"1\"} 1\n\
     demo_ticks_bucket{le=\"2\"} 2\n\
     demo_ticks_bucket{le=\"+Inf\"} 3\n\
     demo_ticks_sum 8\n\
     demo_ticks_count 3\n"
  in
  check string_c "prometheus text format" expected
    (Exposition.prometheus (golden_registry ()))

let test_json_golden () =
  let expected =
    "{\"series_count\":3,\"overflowed\":0,\"metrics\":[\
     {\"name\":\"demo_requests_total\",\"kind\":\"counter\",\
     \"help\":\"requests\",\"series\":[\
     {\"labels\":{\"route\":\"home\"},\"value\":3},\
     {\"labels\":{\"route\":\"login\"},\"value\":1}]},\
     {\"name\":\"demo_ticks\",\"kind\":\"histogram\",\"help\":\"ticks\",\
     \"bounds\":[1,2],\"series\":[\
     {\"labels\":{},\"buckets\":[1,1,1],\"sum\":8,\"count\":3,\
     \"p50\":\"2\",\"p95\":\">2\",\"p99\":\">2\"}]}]}"
  in
  check string_c "json exposition" expected
    (Exposition.json (golden_registry ()))

(* `w5 stats` renders this verbatim: one line per histogram series
   with the derived tick quantiles. *)
let test_summaries_golden () =
  let r = golden_registry () in
  let h = Metrics.histogram r ~buckets:[ 1; 2 ] "demo_ticks" in
  Metrics.observe h ~labels:[ ("route", "login") ] 1;
  let expected =
    "demo_ticks count=3 sum=8 p50=2 p95=>2 p99=>2\n\
     demo_ticks{route=\"login\"} count=1 sum=1 p50=1 p95=1 p99=1\n"
  in
  check string_c "quantile summary" expected (Exposition.summaries r)

(* ---- quantile estimation from bucket counts ---- *)

let estimate_c =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Perf.render_estimate e))
    ( = )

let test_perf_quantiles () =
  let q = Perf.quantile ~bounds:[ 1; 2; 4 ] in
  check (Alcotest.option estimate_c) "empty series" None
    (q ~counts:[ 0; 0; 0; 0 ] 0.5);
  (* counts: 1 <=1, 2 <=2, 1 <=4, 1 overflow (total 5) *)
  let counts = [ 1; 2; 1; 1 ] in
  check (Alcotest.option estimate_c) "p50 in the middle bucket"
    (Some (Perf.Le 2)) (q ~counts 0.5);
  check (Alcotest.option estimate_c) "p95 past the last bound"
    (Some (Perf.Gt 4)) (q ~counts 0.95);
  check (Alcotest.option estimate_c) "p20 rank-1 lands in the first bucket"
    (Some (Perf.Le 1)) (q ~counts 0.20);
  check (Alcotest.option estimate_c) "everything in overflow"
    (Some (Perf.Gt 4))
    (q ~counts:[ 0; 0; 0; 3 ] 0.5);
  check string_c "render Le" "8" (Perf.render_estimate (Perf.Le 8));
  check string_c "render Gt" ">1024" (Perf.render_estimate (Perf.Gt 1024))

(* A syscall killed mid-body still lands its tick observation, and the
   kill's audit entries follow the process's own. *)
let test_syscall_ticks_on_quota_kill () =
  let open W5_os in
  let kernel = Kernel.create () in
  let proc =
    match
      Kernel.spawn kernel ~name:"bloat"
        ~owner:(Principal.make Principal.Developer "dev")
        ~labels:Flow.bottom ~caps:Capability.Set.empty
        ~limits:(Resource.make_limits ~memory:16 ())
        (fun ctx ->
          ignore (Syscall.debug_note ctx "before");
          ignore (Syscall.respond ctx (String.make 64 'x')))
    with
    | Ok proc -> proc
    | Error e -> Alcotest.fail (Os_error.to_string e)
  in
  Kernel.run kernel;
  (match proc.Proc.state with
  | Proc.Killed _ -> ()
  | _ -> Alcotest.fail "respond past the memory quota must kill");
  let ticks = (Kernel.meters kernel).Kernel.syscall_ticks in
  let labels = [ ("op", "proc.respond") ] in
  check int_c "one observation" 1 (Metrics.histogram_count ticks ~labels);
  check int_c "of one tick" 1 (Metrics.histogram_sum ticks ~labels);
  let kinds =
    List.filter_map
      (fun (e : Audit.entry) ->
        if e.Audit.pid = proc.Proc.pid then Some (Audit.event_kind e.Audit.event)
        else None)
      (Audit.entries (Kernel.audit kernel))
  in
  check (Alcotest.list string_c) "kill follows the process's own events"
    [ "app_note"; "quota_hit"; "killed" ]
    kinds

let test_trace_tree_golden () =
  let tr = Tracer.create ~enabled:true () in
  Tracer.start_span tr ~tick:10 "gateway:demo";
  Tracer.start_span tr ~tick:12 "sys.fs.read";
  Tracer.event tr ~tick:13 "flow.check" ~fields:[ ("decision", "allow") ];
  Tracer.end_span tr ~tick:14;
  Tracer.annotate tr [ ("status", "200") ];
  Tracer.end_span tr ~tick:15;
  let expected =
    "gateway:demo  [t10..t15 +5]  status=200\n\
    \  sys.fs.read  [t12..t14 +2]\n\
    \    flow.check  [t13 +0]  decision=allow\n"
  in
  match Tracer.latest tr with
  | None -> Alcotest.fail "no trace"
  | Some root ->
      check string_c "trace tree" expected (Exposition.trace_tree root)

(* ---- the telemetry rule: no user bytes in any exposition ---- *)

let canary = "W5-CANARY-bf1083-do-not-export"

let test_no_user_bytes_in_telemetry () =
  let society =
    W5_workload.Populate.build ~seed:91 ~enforcing:true ~users:6
      ~friends_per_user:2 ~photos_per_user:1 ~blog_posts_per_user:1 ()
  in
  let platform = society.W5_workload.Populate.platform in
  let kernel = Platform.kernel platform in
  W5_obs.Tracer.set_enabled (W5_os.Kernel.tracer kernel) true;
  let users = society.W5_workload.Populate.users in
  let u0 = List.hd users in
  let account = Platform.account_exn platform u0 in
  (* plant a distinctive payload in the victim's profile *)
  (match
     Platform.write_user_record platform account ~file:"profile"
       (W5_store.Record.of_fields [ ("user", u0); ("bio", canary) ])
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "plant failed: %s" (W5_os.Os_error.to_string e));
  (* the owner reads it (allow path), everyone else tries (deny path) *)
  List.iter
    (fun viewer ->
      let client = W5_workload.Populate.login society viewer in
      ignore
        (W5_http.Client.get client "/app/core/social"
           ~params:[ ("user", u0) ]))
    users;
  let owner = W5_workload.Populate.login society u0 in
  let page =
    W5_http.Client.get owner "/app/core/social" ~params:[ ("user", u0) ]
  in
  check bool_c "sanity: the owner does see the payload" true
    (contains page.W5_http.Response.body canary);
  let metrics = W5_os.Kernel.metrics kernel in
  let tracer = W5_os.Kernel.tracer kernel in
  check bool_c "request series recorded" true
    (Metrics.value
       (Metrics.counter metrics "w5_gateway_requests_total")
       ~labels:[ ("route", "app:core/social"); ("status", "200") ]
     > 0);
  List.iter
    (fun (name, rendered) ->
      check bool_c (name ^ " is payload-free") false (contains rendered canary))
    [
      ("prometheus", Exposition.prometheus metrics);
      ("json", Exposition.json metrics);
      ("summaries", Exposition.summaries metrics);
      ("traces", Exposition.traces tracer);
    ];
  (* the provenance/explanation layer reads the same audit log — its
     renderings must be equally payload-free *)
  let log = W5_os.Kernel.audit kernel in
  let explain_text, explain_dot =
    match W5_os.Explain.find_denial log () with
    | None -> ("", "")
    | Some entry ->
        ( (match W5_os.Explain.explain_text log entry with
          | Ok s -> s
          | Error e -> e),
          match W5_os.Explain.explain_dot log entry with
          | Ok s -> s
          | Error e -> e )
  in
  let path = Platform.user_file u0 "profile" in
  let provenance_render =
    W5_os.Explain.provenance_text log ~target:path
      (W5_os.Explain.file_provenance log ~path)
  in
  List.iter
    (fun (name, rendered) ->
      check bool_c (name ^ " is payload-free") false (contains rendered canary))
    [
      ("explain text", explain_text);
      ("explain dot", explain_dot);
      ("file provenance", provenance_render);
      ("audit report", W5_os.Explain.report log);
    ]

(* ---- kernel wiring: syscalls and flow checks actually meter ---- *)

let test_kernel_meters () =
  let open W5_os in
  let kernel = Kernel.create () in
  let proc =
    match
      Kernel.spawn kernel ~name:"meter-probe"
        ~owner:(Kernel.kernel_principal kernel)
        ~labels:Flow.bottom ~caps:Capability.Set.empty
        ~limits:Resource.unlimited
        (fun ctx ->
          (match
             Syscall.create_file ctx "/probe" ~labels:Flow.bottom ~data:"x"
           with
          | Ok () -> ()
          | Error _ -> assert false);
          ignore (Syscall.read_file ctx "/probe"))
    with
    | Ok p -> p
    | Error _ -> assert false
  in
  Kernel.run_proc kernel proc;
  let meters = Kernel.meters kernel in
  check int_c "fs.create metered" 1
    (Metrics.value meters.Kernel.syscalls ~labels:[ ("op", "fs.create") ]);
  check int_c "fs.read metered" 1
    (Metrics.value meters.Kernel.syscalls ~labels:[ ("op", "fs.read") ]);
  check bool_c "flow checks metered" true
    (Metrics.value meters.Kernel.flow_checks
       ~labels:[ ("op", "fs.create"); ("decision", "allow") ]
    > 0);
  check bool_c "cpu quota units metered" true
    (Metrics.value meters.Kernel.quota_units ~labels:[ ("kind", "cpu") ] > 0);
  check int_c "spawns metered" 1 (Metrics.value meters.Kernel.spawns);
  (* every dispatch lands in the per-op latency histogram; a leaf
     syscall consumes exactly its own clock crossing *)
  check int_c "fs.create latency observed" 1
    (Metrics.histogram_count meters.Kernel.syscall_ticks
       ~labels:[ ("op", "fs.create") ]);
  check int_c "fs.read latency is one tick"
    1
    (Metrics.histogram_sum meters.Kernel.syscall_ticks
       ~labels:[ ("op", "fs.read") ]);
  check bool_c "syscall quantiles reach the summary exposition" true
    (contains
       (Exposition.summaries (Kernel.metrics kernel))
       "w5_syscall_ticks{op=\"fs.read\"} count=1 sum=1 p50=1 p95=1 p99=1")

(* ---- audit log: truncation and streaming accessors ---- *)

let test_audit_truncation_seq () =
  let open W5_os in
  let log = Audit.create ~capacity:10 in
  for i = 1 to 25 do
    Audit.record log ~tick:i ~pid:1 (Audit.App_note "n")
  done;
  check int_c "log holds exactly its capacity" 10 (Audit.length log);
  check int_c "evicted counts the rest" 15 (Audit.evicted log);
  check (Alcotest.list int_c) "seq keeps counting across eviction"
    (List.init 10 (fun i -> 16 + i))
    (List.map (fun e -> e.Audit.seq) (Audit.entries log))

let test_audit_iter_fold () =
  let open W5_os in
  let log = Audit.create ~capacity:16 in
  List.iter
    (fun i -> Audit.record log ~tick:i ~pid:i (Audit.App_note "n"))
    [ 1; 2; 3 ];
  let seen = ref [] in
  Audit.iter log ~f:(fun e -> seen := e.Audit.seq :: !seen);
  check (Alcotest.list int_c) "iter visits oldest first" [ 1; 2; 3 ]
    (List.rev !seen);
  check (Alcotest.list int_c) "fold matches entries"
    (List.map (fun e -> e.Audit.seq) (Audit.entries log))
    (List.rev (Audit.fold log ~init:[] ~f:(fun acc e -> e.Audit.seq :: acc)))

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
    Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
    Alcotest.test_case "cardinality cap" `Quick test_cardinality_cap;
    Alcotest.test_case "disabled registry" `Quick test_disabled_registry;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "tracer disabled + ring" `Quick
      test_tracer_disabled_and_ring;
    Alcotest.test_case "tracer dropped counter" `Quick
      test_tracer_dropped_counter;
    Alcotest.test_case "unbalanced end_span is a no-op" `Quick
      test_unbalanced_end_span;
    Alcotest.test_case "with_span nested exception" `Quick
      test_with_span_nested_exception;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "summaries golden" `Quick test_summaries_golden;
    Alcotest.test_case "perf quantiles" `Quick test_perf_quantiles;
    Alcotest.test_case "syscall ticks on a quota kill" `Quick
      test_syscall_ticks_on_quota_kill;
    Alcotest.test_case "trace tree golden" `Quick test_trace_tree_golden;
    Alcotest.test_case "no user bytes in telemetry" `Quick
      test_no_user_bytes_in_telemetry;
    Alcotest.test_case "kernel meters" `Quick test_kernel_meters;
    Alcotest.test_case "audit truncation keeps seq" `Quick
      test_audit_truncation_seq;
    Alcotest.test_case "audit iter/fold" `Quick test_audit_iter_fold;
  ]
