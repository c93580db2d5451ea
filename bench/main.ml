(* The W5 benchmark harness.

   The paper (HotNets 2007) is a position paper: its only "figures"
   are the two architecture diagrams and it reports no measurements.
   This suite therefore regenerates, for every experiment row in
   DESIGN.md §4, the *characterization* a systems reader would demand
   of the prototype the paper defers to future work:

   - fig1-baseline / fig2-w5 : the same user action on the silo model
     and on the W5 meta-application (F1/F2);
   - e2e-request             : full HTTP requests with enforcement on
     vs off — the DIFC overhead (P1; Flume reports 30-45% on Apache
     workloads as the shape reference);
   - label-ops               : the inner-loop lattice operations at
     several label sizes, plus the sorted-array ablation (DESIGN §5);
   - export-check / declassifier : perimeter and gate costs (E1/E2);
   - query-taint             : the covert-channel-safe query engine vs
     the leaky baseline at several collection sizes (E8);
   - pagerank                : code-search ranking cost and
     convergence (E5);
   - federation-sync         : steady-state and one-update sync (E6);
   - federation-faults       : convergence cost vs message drop rate
     under seeded fault injection (retries + backoff);
   - syscall                 : raw kernel-crossing costs under quota
     accounting (E7);
   - client-filter           : the perimeter JavaScript filter (E9).

   Heavy fixtures live in {!Fixtures}, built lazily: each group is a
   thunk, so `--only NAME` pays only for the worlds NAME touches.

   Run with:  dune exec bench/main.exe
   Flags:     --smoke         one tiny iteration per test (CI)
              --only NAME     run a single group
              --json-dir DIR  also write BENCH_<group>.json baselines
*)

open Bechamel
open Toolkit
open W5_difc
open W5_http
open W5_platform
module F = Fixtures

let staged = Staged.stage

(* ------------------------------------------------------------------ *)
(* fig1-baseline: the silo model                                       *)
(* ------------------------------------------------------------------ *)

let bench_fig1 () =
  let open W5_apps.Silo_baseline in
  let silo = F.silo () in
  Test.make_grouped ~name:"fig1-baseline"
    [
      Test.make ~name:"get" (staged (fun () -> get_data silo ~user:"amy" ~key:"k00"));
      Test.make ~name:"thief-export"
        (staged (fun () -> thief_export silo ~user:"amy"));
      Test.make ~name:"migrate-10-items"
        (staged (fun () ->
             let target = create_site "target" in
             migrate ~from_site:silo ~to_site:target ~user:"amy"));
    ]

(* ------------------------------------------------------------------ *)
(* fig2-w5 + e2e-request: full requests through the gateway            *)
(* ------------------------------------------------------------------ *)

let bench_e2e () =
  let on_u0 = F.on_u0 () and off_u0 = F.off_u0 () in
  let on_u0_name = F.on_u0_name () and on_u1_name = F.on_u1_name () in
  let friend_client = F.friend_client ()
  and stranger_client = F.stranger_client () in
  let off_u0_name = List.hd (F.off_society ()).W5_workload.Populate.users in
  Test.make_grouped ~name:"e2e-request"
    [
      Test.make ~name:"own-profile-enforcing"
        (staged (fun () ->
             Client.get on_u0 "/app/core/social" ~params:[ ("user", on_u0_name) ]));
      Test.make ~name:"own-profile-no-enforcement"
        (staged (fun () ->
             Client.get off_u0 "/app/core/social"
               ~params:[ ("user", off_u0_name) ]));
      Test.make ~name:"friend-view-via-declassifier"
        (staged (fun () ->
             Client.get friend_client "/app/core/social"
               ~params:[ ("user", on_u1_name) ]));
      Test.make ~name:"denied-view-403"
        (staged (fun () ->
             Client.get stranger_client "/app/core/social"
               ~params:[ ("user", on_u1_name) ]));
      Test.make ~name:"photo-list"
        (staged (fun () ->
             Client.get on_u0 "/app/core/photos"
               ~params:[ ("action", "list"); ("user", on_u0_name) ]));
      Test.make ~name:"photo-upload-write-path"
        (staged
           (let upload_counter = ref 0 in
            fun () ->
              incr upload_counter;
              Client.post on_u0 "/app/core/photos"
                ~form:
                  [
                    ("action", "upload");
                    ("id", Printf.sprintf "bench-%03d" (!upload_counter mod 256));
                    ("data", "0123456789abcdef");
                  ]));
    ]

(* ------------------------------------------------------------------ *)
(* label-ops (+ the sorted-array representation ablation)              *)
(* ------------------------------------------------------------------ *)

(* The alternative representation from DESIGN.md §5: plain sorted int
   arrays. Implemented here, in the bench, so the library keeps exactly
   one canonical representation. *)
module Label_array = struct
  let of_label l = Array.of_list (List.map Tag.id (Label.to_list l))

  let union a b =
    let out = Array.make (Array.length a + Array.length b) 0 in
    let rec go i j k =
      if i = Array.length a then begin
        Array.blit b j out k (Array.length b - j);
        k + Array.length b - j
      end
      else if j = Array.length b then begin
        Array.blit a i out k (Array.length a - i);
        k + Array.length a - i
      end
      else if a.(i) < b.(j) then begin
        out.(k) <- a.(i);
        go (i + 1) j (k + 1)
      end
      else if a.(i) > b.(j) then begin
        out.(k) <- b.(j);
        go i (j + 1) (k + 1)
      end
      else begin
        out.(k) <- a.(i);
        go (i + 1) (j + 1) (k + 1)
      end
    in
    let n = go 0 0 0 in
    Array.sub out 0 n

  let subset a b =
    let rec go i j =
      if i = Array.length a then true
      else if j = Array.length b then false
      else if a.(i) = b.(j) then go (i + 1) (j + 1)
      else if a.(i) > b.(j) then go i (j + 1)
      else false
    in
    go 0 0
end

let label_sizes = [ 1; 8; 64 ]

let labels_of_size n =
  Label.of_list
    (List.init n (fun i ->
         Tag.fresh ~name:(Printf.sprintf "bench%d-%d" n i) Tag.Secrecy))

let bench_label_ops () =
  let label_pairs =
    List.map
      (fun n ->
        let a = labels_of_size n and b = labels_of_size n in
        (n, a, b, Label.union a b))
      label_sizes
  in
  Test.make_grouped ~name:"label-ops"
    (List.concat_map
       (fun (n, a, b, ab) ->
         let arr_a = Label_array.of_label a
         and arr_b = Label_array.of_label b
         and arr_ab = Label_array.of_label ab in
         [
           Test.make ~name:(Printf.sprintf "set-union-%d" n)
             (staged (fun () -> Label.union a b));
           Test.make ~name:(Printf.sprintf "set-subset-%d" n)
             (staged (fun () -> Label.subset a ab));
           Test.make ~name:(Printf.sprintf "array-union-%d" n)
             (staged (fun () -> Label_array.union arr_a arr_b));
           Test.make ~name:(Printf.sprintf "array-subset-%d" n)
             (staged (fun () -> Label_array.subset arr_a arr_ab));
           Test.make
             ~name:(Printf.sprintf "can-flow-%d" n)
             (staged
                (let src = Flow.make ~secrecy:a () in
                 let dst = Flow.make ~secrecy:ab () in
                 fun () -> Flow.can_flow src dst));
         ])
       label_pairs)

(* ------------------------------------------------------------------ *)
(* export-check + declassifier                                         *)
(* ------------------------------------------------------------------ *)

let perimeter_fixture () =
  let platform = (F.on_society ()).W5_workload.Populate.platform in
  let owner = Platform.account_exn platform (F.on_u1_name ()) in
  let labels =
    Flow.make ~secrecy:(Label.singleton owner.Account.secret_tag) ()
  in
  (platform, owner, labels)

let bench_perimeter () =
  let platform, owner, labels = perimeter_fixture () in
  let friend = Platform.account_exn platform (F.friend_of_u1 ()) in
  Test.make_grouped ~name:"export-check"
    [
      Test.make ~name:"owner-allow"
        (staged (fun () ->
             Perimeter.export platform ~viewer:(Some owner) ~data:"payload"
               ~labels ()));
      Test.make ~name:"friend-via-declassifier"
        (staged (fun () ->
             Perimeter.export platform ~viewer:(Some friend) ~data:"payload"
               ~labels ()));
      Test.make ~name:"public-payload"
        (staged (fun () ->
             Perimeter.export platform ~viewer:None ~data:"payload"
               ~labels:Flow.bottom ()));
    ]

let bench_declassifier () =
  (* ablation: running the decision logic inline vs through a kernel
     gate (fresh process, capability transfer, response labels) *)
  let platform, owner, labels = perimeter_fixture () in
  let on_u1_name = F.on_u1_name () and friend_of_u1 = F.friend_of_u1 () in
  let inline () =
    Platform.with_ctx platform ~name:"inline-declass" ~labels
      ~caps:owner.Account.caps (fun ctx ->
        Ok
          (Declassifier.friends_only ctx ~owner:on_u1_name
             ~viewer:(Some friend_of_u1) ~data:"payload"))
  in
  let gate_name = Declassifier.gate_name ~owner:on_u1_name ~name:"friends" in
  let via_gate () =
    Platform.with_ctx platform ~name:"gate-declass" ~labels (fun ctx ->
        W5_os.Syscall.invoke_gate ctx gate_name
          ~arg:
            (Declassifier.encode_arg ~viewer:(Some friend_of_u1)
               ~data:"payload"))
  in
  Test.make_grouped ~name:"declassifier"
    [
      Test.make ~name:"logic-inline" (staged inline);
      Test.make ~name:"logic-via-gate" (staged via_gate);
    ]

(* ------------------------------------------------------------------ *)
(* query-taint (E8)                                                    *)
(* ------------------------------------------------------------------ *)

let bench_query () =
  let kernel = F.query_kernel () in
  Test.make_grouped ~name:"query-taint"
    (List.concat_map
       (fun n ->
         let collection = Printf.sprintf "c%d" n in
         let where = W5_store.Query.field_equals "from" "bob" in
         [
           Test.make
             ~name:(Printf.sprintf "safe-select-%d" n)
             (staged (fun () ->
                  W5_store.Query.select (F.spawn_on kernel "q") ~collection
                    ~where));
           Test.make
             ~name:(Printf.sprintf "leaky-select-%d" n)
             (staged (fun () ->
                  W5_store.Query.select_leaky (F.spawn_on kernel "q")
                    ~collection ~where));
         ])
       F.query_sizes)

(* ------------------------------------------------------------------ *)
(* query-index: indexed vs scanning selects                            *)
(* ------------------------------------------------------------------ *)

(* Collections sized 10..10k where "u" takes n/10 distinct values (so
   an equality hit returns ~10 rows) and "score" is the row number (so
   a range query over the top 10 also returns 10). The planner serves
   both from the index; [~use_index:false] is the scan baseline. *)
let bench_query_index () =
  let kernel = F.index_kernel () in
  Test.make_grouped ~name:"query-index"
    (List.concat_map
       (fun n ->
         let collection = F.index_collection n in
         let eq = W5_store.Query.field_equals "u" "u1" in
         let range = W5_store.Query.field_int_at_least "score" (n - 10) in
         [
           Test.make
             ~name:(Printf.sprintf "indexed-eq-%d" n)
             (staged (fun () ->
                  W5_store.Query.select (F.spawn_on kernel "q") ~collection
                    ~where:eq));
           Test.make
             ~name:(Printf.sprintf "scan-eq-%d" n)
             (staged (fun () ->
                  W5_store.Query.select ~use_index:false
                    (F.spawn_on kernel "q") ~collection ~where:eq));
           Test.make
             ~name:(Printf.sprintf "indexed-range-%d" n)
             (staged (fun () ->
                  W5_store.Query.select (F.spawn_on kernel "q") ~collection
                    ~where:range));
           Test.make
             ~name:(Printf.sprintf "scan-range-%d" n)
             (staged (fun () ->
                  W5_store.Query.select ~use_index:false
                    (F.spawn_on kernel "q") ~collection ~where:range));
         ])
       F.index_sizes)

(* The headline number (rows actually visited, not wall time), printed
   from the counters so BENCH output shows the O(result)-vs-
   O(collection) gap directly. *)
let report_rows_scanned () =
  let kernel = F.index_kernel () in
  let metric =
    W5_obs.Metrics.counter
      (W5_os.Kernel.metrics kernel)
      "w5_store_rows_scanned_total" ~help:"Rows visited by store queries"
  in
  let rows_visited_by f =
    let before = W5_obs.Metrics.value metric in
    f ();
    W5_obs.Metrics.value metric - before
  in
  let collection = F.index_collection 10000 in
  let where = W5_store.Query.field_equals "u" "u1" in
  let indexed =
    rows_visited_by (fun () ->
        ignore
          (W5_store.Query.select (F.spawn_on kernel "q") ~collection ~where))
  in
  let scanned =
    rows_visited_by (fun () ->
        ignore
          (W5_store.Query.select ~use_index:false (F.spawn_on kernel "q")
             ~collection ~where))
  in
  Printf.printf
    "\nquery-index rows visited at 10k rows (field_equals, 10 matches):\n";
  Printf.printf "  indexed: %d   scan: %d   (%.0fx fewer labeled reads)\n"
    indexed scanned
    (float_of_int scanned /. float_of_int (max 1 indexed))

(* ------------------------------------------------------------------ *)
(* pagerank (E5)                                                       *)
(* ------------------------------------------------------------------ *)

let bench_pagerank () =
  let graph_100 = F.graph_100 () and graph_1000 = F.graph_1000 () in
  Test.make_grouped ~name:"pagerank"
    [
      Test.make ~name:"compute-100"
        (staged (fun () -> W5_rank.Pagerank.compute graph_100));
      Test.make ~name:"compute-1000"
        (staged (fun () -> W5_rank.Pagerank.compute graph_1000));
      Test.make ~name:"score-registry"
        (staged (fun () ->
             W5_rank.Code_search.score_all
               (Platform.registry (F.on_society ()).W5_workload.Populate.platform)));
    ]

(* ------------------------------------------------------------------ *)
(* federation-sync (E6)                                                *)
(* ------------------------------------------------------------------ *)

let sync_counter = ref 0

let bench_federation () =
  let link = F.sync_link () and side_a = F.sync_side_a () in
  Test.make_grouped ~name:"federation-sync"
    [
      Test.make ~name:"steady-state-round"
        (staged (fun () -> W5_federation.Sync.sync link));
      Test.make ~name:"one-update-round"
        (staged (fun () ->
             incr sync_counter;
             let account =
               Platform.account_exn side_a.W5_federation.Sync.platform "zoe"
             in
             ignore
               (Platform.write_user_record side_a.W5_federation.Sync.platform
                  account ~file:"profile"
                  (W5_store.Record.of_fields
                     [ ("user", "zoe"); ("rev", string_of_int !sync_counter) ]));
             W5_federation.Sync.sync link));
    ]

(* ------------------------------------------------------------------ *)
(* federation-faults: convergence cost vs message drop rate            *)
(* ------------------------------------------------------------------ *)

let faulty_counter = ref 0

(* One measured unit: an edit on side A driven to convergence under a
   fresh seeded plan with [drops] message losses (no crashes — wall
   time under retries/backoff is the question here). The seed comes
   from a counter so every iteration faces a different but
   reproducible schedule. *)
let converge_under_drops ~drops () =
  incr faulty_counter;
  let link = F.faulty_link () and side_a = F.faulty_side_a () in
  W5_federation.Sync.set_faults link
    (W5_fault.Fault.of_seed ~drops ~delays:0 ~duplicates:0 ~crashes:0
       ~seed:!faulty_counter ());
  let account = Platform.account_exn side_a.W5_federation.Sync.platform "zoe" in
  ignore
    (Platform.write_user_record side_a.W5_federation.Sync.platform account
       ~file:"profile"
       (W5_store.Record.of_fields
          [ ("user", "zoe"); ("rev", string_of_int !faulty_counter) ]));
  let rec go n =
    if n > 0 && not (W5_federation.Sync.converged link) then begin
      ignore (W5_federation.Sync.sync link);
      go (n - 1)
    end
  in
  go 10

let bench_federation_faults () =
  Test.make_grouped ~name:"federation-faults"
    [
      Test.make ~name:"converge-drops-0"
        (staged (converge_under_drops ~drops:0));
      Test.make ~name:"converge-drops-2"
        (staged (converge_under_drops ~drops:2));
      Test.make ~name:"converge-drops-6"
        (staged (converge_under_drops ~drops:6));
    ]

(* ------------------------------------------------------------------ *)
(* portability: whole-account export (E19)                             *)
(* ------------------------------------------------------------------ *)

let bench_portability () =
  let platform = (F.on_society ()).W5_workload.Populate.platform in
  let takeout_account = Platform.account_exn platform (F.on_u0_name ()) in
  Test.make_grouped ~name:"portability"
    [
      Test.make ~name:"export-bundle"
        (staged (fun () ->
             W5_federation.Migrate.export_bundle platform takeout_account));
      Test.make ~name:"encode-bundle"
        (staged
           (let bundle =
              match
                W5_federation.Migrate.export_bundle platform takeout_account
              with
              | Ok b -> b
              | Error _ -> []
            in
            fun () -> W5_federation.Migrate.encode_bundle bundle));
    ]

(* ------------------------------------------------------------------ *)
(* syscall micro-costs under quota accounting (E7)                     *)
(* ------------------------------------------------------------------ *)

let create_counter = ref 0

let bench_syscall () =
  let ctx = F.file_ctx () in
  Test.make_grouped ~name:"syscall"
    [
      Test.make ~name:"file-exists"
        (staged (fun () -> W5_os.Syscall.file_exists ctx "/bench-file"));
      Test.make ~name:"read-taint-256B"
        (staged (fun () -> W5_os.Syscall.read_file_taint ctx "/bench-file"));
      Test.make ~name:"read-strict-256B"
        (staged (fun () -> W5_os.Syscall.read_file ctx "/bench-file"));
      Test.make ~name:"write-256B"
        (staged (fun () ->
             W5_os.Syscall.write_file ctx "/bench-file"
               ~data:(String.make 256 'y')));
      Test.make ~name:"create-unlink"
        (staged (fun () ->
             incr create_counter;
             let path = Printf.sprintf "/bench-tmp-%d" !create_counter in
             ignore
               (W5_os.Syscall.create_file ctx path ~labels:Flow.bottom
                  ~data:"x");
             W5_os.Syscall.unlink ctx path));
    ]

(* ------------------------------------------------------------------ *)
(* scheduler: deterministic interleaving cost and throughput           *)
(* ------------------------------------------------------------------ *)

(* Each measured unit builds a fresh kernel holding [n] small
   processes (one file create plus a few read/consume rounds each) and
   drains it — whole-run cost including admission, seeded picks,
   context switches and effect-continuation capture. [sequential]
   drains the identical world through plain {!W5_os.Kernel.run}, so
   the seeded/sequential ratio is the price of interleaving itself. *)
let sched_world n =
  let kernel = W5_os.Kernel.create () in
  for i = 1 to n do
    ignore
      (W5_os.Kernel.spawn kernel
         ~name:(Printf.sprintf "p%d" i)
         ~owner:(Principal.make Principal.Developer "bench")
         ~labels:Flow.bottom ~caps:Capability.Set.empty
         ~limits:W5_os.Resource.default_app_limits
         (fun ctx ->
           let path = Printf.sprintf "/bench-%d" i in
           ignore
             (W5_os.Syscall.create_file ctx path ~labels:Flow.bottom ~data:"x");
           for _ = 1 to 3 do
             ignore (W5_os.Syscall.read_file ctx path);
             ignore (W5_os.Syscall.consume ctx ~cpu:1)
           done))
  done;
  kernel

let bench_sched () =
  let drain ~n ~quantum ~policy () =
    ignore (W5_os.Sched.run ~quantum ~policy (sched_world n))
  in
  let seeded = W5_os.Sched.Seeded 42 in
  Test.make_grouped ~name:"scheduler"
    [
      Test.make ~name:"drain-seeded-16"
        (staged (drain ~n:16 ~quantum:4 ~policy:seeded));
      Test.make ~name:"drain-seeded-64"
        (staged (drain ~n:64 ~quantum:4 ~policy:seeded));
      Test.make ~name:"drain-seeded-256"
        (staged (drain ~n:256 ~quantum:4 ~policy:seeded));
      Test.make ~name:"drain-fifo-64"
        (staged (drain ~n:64 ~quantum:4 ~policy:W5_os.Sched.Fifo));
      Test.make ~name:"drain-seeded-64-quantum1"
        (staged (drain ~n:64 ~quantum:1 ~policy:seeded));
      Test.make ~name:"sequential-64"
        (staged (fun () -> W5_os.Kernel.run (sched_world 64)));
    ]

(* The tick-level shape: per-slice logical latency quantiles straight
   from the w5_sched_slice_ticks histogram, at two concurrency levels —
   "p95 dispatch ticks vs concurrency" without any wall clock. *)
let report_sched_ticks () =
  Printf.printf "\nscheduler slice ticks (logical, quantum=4, seeded):\n";
  List.iter
    (fun n ->
      let kernel = sched_world n in
      ignore (W5_os.Sched.run ~quantum:4 ~policy:(W5_os.Sched.Seeded 42) kernel);
      match
        List.assoc_opt "w5_sched_slice_ticks"
          (W5_obs.Perf.summaries (W5_os.Kernel.metrics kernel))
      with
      | None -> Printf.printf "  %4d procs: (no histogram)\n" n
      | Some s ->
          let q = function
            | None -> "?"
            | Some e -> W5_obs.Perf.render_estimate e
          in
          Printf.printf "  %4d procs: %d slices, p50<=%s p95<=%s p99<=%s\n" n
            s.W5_obs.Perf.q_count (q s.W5_obs.Perf.q_p50)
            (q s.W5_obs.Perf.q_p95) (q s.W5_obs.Perf.q_p99))
    [ 16; 256 ]

(* ------------------------------------------------------------------ *)
(* metrics-overhead: what instrumentation costs on the syscall path    *)
(* ------------------------------------------------------------------ *)

(* Three kernels running the identical read: registry on (the
   default), registry off (one branch per metric site), and registry
   on with the tracer also recording spans. *)
let bench_metrics () =
  let metered_ctx = F.file_ctx () in
  let unmetered_ctx =
    let ctx = F.file_ctx () in
    W5_obs.Metrics.set_enabled
      (W5_os.Kernel.metrics ctx.W5_os.Kernel.kernel)
      false;
    ctx
  in
  let traced_ctx =
    let ctx = F.file_ctx () in
    W5_obs.Tracer.set_enabled (W5_os.Kernel.tracer ctx.W5_os.Kernel.kernel) true;
    ctx
  in
  let obs_registry = W5_obs.Metrics.create () in
  let obs_counter =
    W5_obs.Metrics.counter obs_registry "bench_counter" ~help:"bench"
  in
  let obs_histogram =
    W5_obs.Metrics.histogram obs_registry "bench_histogram" ~help:"bench"
  in
  Test.make_grouped ~name:"metrics-overhead"
    [
      Test.make ~name:"read-taint-metered"
        (staged (fun () -> W5_os.Syscall.read_file_taint metered_ctx "/bench-file"));
      Test.make ~name:"read-taint-unmetered"
        (staged (fun () ->
             W5_os.Syscall.read_file_taint unmetered_ctx "/bench-file"));
      Test.make ~name:"read-taint-traced"
        (staged (fun () -> W5_os.Syscall.read_file_taint traced_ctx "/bench-file"));
      Test.make ~name:"counter-inc"
        (staged (fun () ->
             W5_obs.Metrics.inc obs_counter ~labels:[ ("op", "bench") ]));
      Test.make ~name:"histogram-observe"
        (staged (fun () -> W5_obs.Metrics.observe obs_histogram 42));
    ]

(* ------------------------------------------------------------------ *)
(* client-filter (E9)                                                  *)
(* ------------------------------------------------------------------ *)

let bench_filter () =
  let page_clean =
    Html.page ~title:"clean"
      (String.concat ""
         (List.init 100 (fun i -> Html.element "p" (Printf.sprintf "para %d" i))))
  in
  let page_scripted =
    Html.page ~title:"evil"
      (String.concat ""
         (List.init 100 (fun i ->
              if i mod 10 = 0 then
                "<script>alert(" ^ string_of_int i ^ ")</script>"
              else Html.element "p" ~attrs:[ ("onclick", "x()") ] "text")))
  in
  let page_marked =
    Html.page ~title:"calendar"
      (String.concat ""
         (List.init 100 (fun i ->
              if i mod 3 = 0 then
                Declassifier.secret_span (Printf.sprintf "event %d" i)
              else Html.element "p" "free slot")))
  in
  Test.make_grouped ~name:"client-filter"
    [
      Test.make ~name:"redact-marked-10KB"
        (staged (fun () -> Declassifier.redact_spans page_marked));
      Test.make ~name:"detect-clean-10KB"
        (staged (fun () -> Html.contains_script page_clean));
      Test.make ~name:"strip-clean-10KB"
        (staged (fun () -> Html.strip_scripts page_clean));
      Test.make ~name:"strip-scripted-10KB"
        (staged (fun () -> Html.strip_scripts page_scripted));
    ]

(* ------------------------------------------------------------------ *)
(* collaboration: groups and messaging                                 *)
(* ------------------------------------------------------------------ *)

let group_post_counter = ref 0

let bench_collab () =
  let platform = F.collab_platform ()
  and group = F.collab_group ()
  and founder = F.collab_founder ()
  and member = F.collab_member () in
  (* read and caps lookups run before the post bench floods the
     directory, so "20 posts" stays honest *)
  Test.make_grouped ~name:"collaboration"
    [
      Test.make ~name:"member-caps-lookup"
        (staged (fun () -> Group.member_caps platform ~user:"member"));
      Test.make ~name:"group-read-20-posts"
        (staged (fun () -> Group.read_posts platform group ~reader:member));
      Test.make ~name:"group-post"
        (staged (fun () ->
             incr group_post_counter;
             Group.post platform group ~author:founder
               ~id:(Printf.sprintf "p%06d" !group_post_counter)
               ~body:"benchmark post"));
    ]

(* ------------------------------------------------------------------ *)
(* rank-ablation: HITS vs PageRank (DESIGN §5)                          *)
(* ------------------------------------------------------------------ *)

let bench_rank_ablation () =
  let graph_100 = F.graph_100 () and graph_1000 = F.graph_1000 () in
  Test.make_grouped ~name:"rank-ablation"
    [
      Test.make ~name:"hits-100"
        (staged (fun () -> W5_rank.Hits.compute graph_100));
      Test.make ~name:"hits-1000"
        (staged (fun () -> W5_rank.Hits.compute graph_1000));
    ]

(* ------------------------------------------------------------------ *)
(* durability: filesystem snapshot / restore                           *)
(* ------------------------------------------------------------------ *)

let bench_durability () =
  let fs =
    W5_os.Kernel.fs
      (Platform.kernel (F.on_society ()).W5_workload.Populate.platform)
  in
  let image = W5_os.Fs.snapshot fs in
  Test.make_grouped ~name:"durability"
    [
      Test.make ~name:"snapshot-populated-fs"
        (staged (fun () -> W5_os.Fs.snapshot fs));
      Test.make ~name:"restore-populated-fs"
        (staged (fun () -> W5_os.Fs.restore_into fs image));
    ]

(* ------------------------------------------------------------------ *)
(* scaling: trace replay vs society size                               *)
(* ------------------------------------------------------------------ *)

let bench_scaling () =
  Test.make_grouped ~name:"scaling"
    (List.map
       (fun (n, society) ->
         let rng = W5_workload.Rng.create ~seed:77 in
         let actions =
           W5_workload.Trace.generate rng ~society
             ~mix:W5_workload.Trace.read_heavy ~length:50
         in
         Test.make
           ~name:(Printf.sprintf "replay-50-actions-%d-users" n)
           (staged (fun () -> W5_workload.Trace.replay society actions)))
       (F.scaling_societies ()))

(* ------------------------------------------------------------------ *)
(* provenance: graph reconstruction cost vs audit-log size             *)
(* ------------------------------------------------------------------ *)

let bench_provenance () =
  let logs = F.provenance_logs () in
  let big_log = F.provenance_big_log () in
  let big_graph = F.provenance_big_graph () in
  Test.make_grouped ~name:"provenance"
    (List.map
       (fun (n, log) ->
         Test.make
           ~name:(Printf.sprintf "graph-build-%dk-entries" (n / 1000))
           (staged (fun () -> W5_os.Explain.graph log)))
       logs
    @ [
        Test.make ~name:"explain-denial-100k"
          (staged (fun () ->
               match W5_os.Explain.find_denial big_log () with
               | None -> failwith "bench: no denial in synthetic log"
               | Some entry -> W5_os.Explain.explain big_graph entry));
      ])

(* ------------------------------------------------------------------ *)
(* vet: whole-platform static analysis time vs. ecosystem size         *)
(* ------------------------------------------------------------------ *)

let bench_vet () =
  Test.make_grouped ~name:"vet"
    (List.map
       (fun (n, platform) ->
         Test.make
           ~name:(Printf.sprintf "capture-analyze-%d-apps" n)
           (staged (fun () ->
                W5_analysis.Vet.analyze (W5_analysis.Static.capture platform))))
       (F.vet_platforms ()))

(* ------------------------------------------------------------------ *)
(* trace-health: tracing overhead, merge scaling, health rollup        *)
(* ------------------------------------------------------------------ *)

let bench_trace_health () =
  let traced_link = F.traced_link () and untraced_link = F.untraced_link () in
  let trace_1k = F.synthetic_trace_1k ()
  and trace_10k = F.synthetic_trace_10k () in
  let health = F.health_loaded () in
  (* a pre-filled ring: every commit below evicts the oldest trace,
     measuring the O(1) eviction path *)
  let ring = W5_obs.Tracer.create ~enabled:true ~capacity:16 () in
  for i = 1 to 16 do
    W5_obs.Tracer.start_span ring ~tick:i "warm";
    W5_obs.Tracer.end_span ring ~tick:(i + 1)
  done;
  let ring_tick = ref 16 in
  Test.make_grouped ~name:"trace-health"
    [
      Test.make ~name:"sync-round-traced"
        (staged (fun () -> W5_federation.Sync.sync traced_link));
      Test.make ~name:"sync-round-untraced"
        (staged (fun () -> W5_federation.Sync.sync untraced_link));
      Test.make ~name:"commit-at-capacity"
        (staged (fun () ->
             incr ring_tick;
             W5_obs.Tracer.start_span ring ~tick:!ring_tick "bench";
             W5_obs.Tracer.end_span ring ~tick:!ring_tick));
      Test.make ~name:"merge-1k-spans"
        (staged (fun () -> W5_obs.Trace_merge.merge trace_1k));
      Test.make ~name:"merge-10k-spans"
        (staged (fun () -> W5_obs.Trace_merge.merge trace_10k));
      Test.make ~name:"health-report-90-pairs"
        (staged (fun () ->
             W5_obs.Health.report health ~now:(fun _ -> 10_000)));
    ]

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let group_thunks =
  [
    ("fig1-baseline", bench_fig1);
    ("e2e-request", bench_e2e);
    ("label-ops", bench_label_ops);
    ("export-check", bench_perimeter);
    ("declassifier", bench_declassifier);
    ("query-taint", bench_query);
    ("query-index", bench_query_index);
    ("pagerank", bench_pagerank);
    ("rank-ablation", bench_rank_ablation);
    ("collaboration", bench_collab);
    ("durability", bench_durability);
    ("scaling", bench_scaling);
    ("federation-sync", bench_federation);
    ("federation-faults", bench_federation_faults);
    ("portability", bench_portability);
    ("syscall", bench_syscall);
    ("scheduler", bench_sched);
    ("metrics-overhead", bench_metrics);
    ("client-filter", bench_filter);
    ("provenance", bench_provenance);
    ("vet", bench_vet);
    ("trace-health", bench_trace_health);
  ]

(* --smoke: one tiny iteration per test in every group, for CI —
   proves every bench fixture and body still runs, without measuring
   anything. *)
let smoke = Array.exists (( = ) "--smoke") Sys.argv

(* --only NAME: run a single group. Fixtures are lazy, so only the
   worlds NAME touches get built. *)
let only =
  let rec find = function
    | "--only" :: name :: _ -> Some name
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* --json-dir DIR: additionally write one BENCH_<group>.json baseline
   per group run (schema in W5_obs.Baseline), for `w5 perf`. *)
let json_dir =
  let rec find = function
    | "--json-dir" :: dir :: _ -> Some dir
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let selected =
  match only with
  | None -> group_thunks
  | Some name -> List.filter (fun (n, _) -> n = name) group_thunks

let run_and_analyze test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:1 ~quota:(Time.second 0.001) ~kde:None
        ~stabilize:false ()
    else
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None
        ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  (raw, Analyze.all ols instance raw)

let estimate results name =
  match Hashtbl.find_opt results name with
  | None -> None
  | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Some t
      | Some [] | None -> None)

(* bechamel names tests "group/test"; baseline entries keep just the
   test part since the group is the file. *)
let strip_group_prefix ~group_name name =
  let prefix = group_name ^ "/" in
  let pn = String.length prefix in
  if String.length name > pn && String.sub name 0 pn = prefix then
    String.sub name pn (String.length name - pn)
  else name

let baseline_of_group ~group_name ~raw ~results names =
  let entries =
    List.filter_map
      (fun name ->
        match (estimate results name, Hashtbl.find_opt raw name) with
        | Some ns, Some (b : Benchmark.t) ->
            let r2 =
              match Hashtbl.find_opt results name with
              | Some ols -> Option.value ~default:0.0 (Analyze.OLS.r_square ols)
              | None -> 0.0
            in
            Some
              {
                W5_obs.Baseline.e_name = strip_group_prefix ~group_name name;
                e_runs = b.Benchmark.stats.samples;
                e_ns = ns;
                e_r2 = r2;
              }
        | _ -> None)
      names
  in
  W5_obs.Baseline.make_group ~name:group_name entries

let pp_ns fmt t =
  if t > 1e6 then Format.fprintf fmt "%10.3f ms" (t /. 1e6)
  else if t > 1e3 then Format.fprintf fmt "%10.3f us" (t /. 1e3)
  else Format.fprintf fmt "%10.1f ns" t

let () =
  Printf.printf "W5 benchmark harness (one group per DESIGN.md experiment)\n";
  Printf.printf "==========================================================\n%!";
  let all_results = Hashtbl.create 128 in
  let baselines = ref [] in
  List.iter
    (fun (group_name, thunk) ->
      Printf.printf "\n[%s]\n%!" group_name;
      let group = thunk () in
      let raw, results = run_and_analyze group in
      let names = Test.names group in
      (* stable presentation: the declared test order *)
      List.iter
        (fun name ->
          match estimate results name with
          | Some t ->
              Hashtbl.replace all_results name t;
              Format.printf "  %-45s %a/run@." name pp_ns t
          | None -> Format.printf "  %-45s (no estimate)@." name)
        names;
      if json_dir <> None then
        baselines := baseline_of_group ~group_name ~raw ~results names :: !baselines)
    selected;

  (* the "shape" summary: who wins and by what factor *)
  let ratio a b =
    match (Hashtbl.find_opt all_results a, Hashtbl.find_opt all_results b) with
    | Some x, Some y when y > 0.0 -> Some (x /. y)
    | _ -> None
  in
  let print_ratio label a b =
    match ratio a b with
    | Some r -> Printf.printf "  %-52s %6.2fx\n" label r
    | None -> Printf.printf "  %-52s (n/a)\n" label
  in
  Printf.printf "\nShape summary (cf. EXPERIMENTS.md)\n";
  Printf.printf "----------------------------------\n";
  print_ratio "P1  DIFC enforcement overhead (on/off, e2e request)"
    "e2e-request/own-profile-enforcing"
    "e2e-request/own-profile-no-enforcement";
  print_ratio "F2/F1  W5 request vs silo lookup"
    "e2e-request/own-profile-enforcing" "fig1-baseline/get";
  print_ratio "E2  declassified friend view vs own view"
    "e2e-request/friend-view-via-declassifier"
    "e2e-request/own-profile-enforcing";
  print_ratio "E2  gate invocation vs inline logic"
    "declassifier/logic-via-gate" "declassifier/logic-inline";
  print_ratio "E8  safe query vs leaky baseline (1000 rows)"
    "query-taint/safe-select-1000" "query-taint/leaky-select-1000";
  print_ratio "IDX scan vs indexed equality select (10k rows)"
    "query-index/scan-eq-10000" "query-index/indexed-eq-10000";
  print_ratio "IDX scan vs indexed range select (10k rows)"
    "query-index/scan-range-10000" "query-index/indexed-range-10000";
  print_ratio "E5  pagerank scaling (1000 vs 100 nodes)"
    "pagerank/compute-1000" "pagerank/compute-100";
  print_ratio "E5  hits vs pagerank (1000 nodes)" "rank-ablation/hits-1000"
    "pagerank/compute-1000";
  print_ratio "scaling: 20-user vs 5-user society (50-action replay)"
    "scaling/replay-50-actions-20-users" "scaling/replay-50-actions-5-users";
  print_ratio "E6  one-update sync vs steady state"
    "federation-sync/one-update-round" "federation-sync/steady-state-round";
  print_ratio "label size 64 vs 1 (set union)" "label-ops/set-union-64"
    "label-ops/set-union-1";
  print_ratio "label repr: set vs sorted array (union, 64 tags)"
    "label-ops/set-union-64" "label-ops/array-union-64";
  print_ratio "OBS metrics overhead (metered/unmetered tainting read)"
    "metrics-overhead/read-taint-metered"
    "metrics-overhead/read-taint-unmetered";
  print_ratio "OBS tracing overhead (traced/metered tainting read)"
    "metrics-overhead/read-taint-traced"
    "metrics-overhead/read-taint-metered";
  print_ratio "SCHED interleaved vs sequential drain (64 procs)"
    "scheduler/drain-seeded-64" "scheduler/sequential-64";
  print_ratio "SCHED quantum 1 vs 4 (64 procs, preemption pressure)"
    "scheduler/drain-seeded-64-quantum1" "scheduler/drain-seeded-64";
  print_ratio "SCHED drain scaling (256 vs 16 procs)"
    "scheduler/drain-seeded-256" "scheduler/drain-seeded-16";
  if List.mem_assoc "query-index" selected then report_rows_scanned ();
  if List.mem_assoc "scheduler" selected then report_sched_ticks ();
  (match json_dir with
  | None -> ()
  | Some dir ->
      let groups = List.rev !baselines in
      W5_obs.Baseline.save_dir ~dir groups;
      Printf.printf "\nwrote %d BENCH_<group>.json file(s) to %s\n"
        (List.length groups) dir);
  Printf.printf "\nbench: done\n"
