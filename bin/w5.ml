(* The W5 command-line driver: boot a simulated provider, drive
   scripted scenarios, inspect the audit log, rank the module
   ecosystem. Everything is deterministic from --seed.

     dune exec bin/w5.exe -- <command> [options]
*)

open Cmdliner
open W5_http
open W5_platform

(* ---- shared options ---- *)

let seed_arg =
  let doc = "PRNG seed for workload generation (determines everything)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* A user count of at least [min]: Cmdliner refuses anything smaller
   with a usage line and exit 124, before any society is built. *)
let users_at_least min =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < min ->
        Error (`Msg (Printf.sprintf "must be at least %d, got %d" min n))
    | r -> r
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let users_arg =
  let doc = "Number of users in the synthetic society." in
  Arg.(value & opt (users_at_least 1) 12 & info [ "users" ] ~docv:"N" ~doc)

(* The formats a command renders: Cmdliner refuses any other value
   with a usage line and exit 124. *)
let format_arg formats default ~doc =
  Arg.(value & opt (enum formats) default & info [ "format" ] ~docv:"FMT" ~doc)

let text_json_dot = [ ("text", `Text); ("json", `Json); ("dot", `Dot) ]

let build_society ~seed ~users ~enforcing =
  W5_workload.Populate.build ~seed ~enforcing ~users ~friends_per_user:3
    ~photos_per_user:2 ~blog_posts_per_user:1 ()

(* ---- w5 serve: drive a request trace and report ---- *)

let serve seed users requests enforcing =
  Printf.printf "booting provider (seed=%d, users=%d, enforcing=%b)...\n%!" seed
    users enforcing;
  let society = build_society ~seed ~users ~enforcing in
  let platform = society.W5_workload.Populate.platform in
  let rng = W5_workload.Rng.create ~seed:(seed + 1) in
  let everyone = society.W5_workload.Populate.users in
  let clients =
    List.map (fun u -> (u, W5_workload.Populate.login society u)) everyone
  in
  let pick_client () = W5_workload.Rng.pick rng clients in
  let outcomes = Hashtbl.create 8 in
  let count status =
    Hashtbl.replace outcomes status
      (1 + Option.value (Hashtbl.find_opt outcomes status) ~default:0)
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to requests do
    let user, client = pick_client () in
    let target = W5_workload.Rng.pick rng everyone in
    let r =
      match W5_workload.Rng.int rng 4 with
      | 0 ->
          Client.get client "/app/core/social" ~params:[ ("user", target) ]
      | 1 ->
          Client.get client "/app/core/photos"
            ~params:[ ("action", "list"); ("user", target) ]
      | 2 ->
          Client.get client "/app/core/blog"
            ~params:[ ("action", "read"); ("user", target) ]
      | _ ->
          Client.get client "/app/core/social" ~params:[ ("user", user) ]
    in
    count (Response.status_code r.Response.status)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "\n%d requests in %.3fs (%.0f req/s)\n" requests dt
    (float_of_int requests /. dt);
  Printf.printf "status breakdown:\n";
  Hashtbl.fold (fun status n acc -> (status, n) :: acc) outcomes []
  |> List.sort compare
  |> List.iter (fun (status, n) -> Printf.printf "  %d -> %d\n" status n);
  Printf.printf "audit log entries: %d (%d denials)\n"
    (W5_os.Audit.length (W5_os.Kernel.audit (Platform.kernel platform)))
    (List.length (W5_os.Audit.denials (W5_os.Kernel.audit (Platform.kernel platform))));
  Printf.printf "kernel processes spawned: %d\n"
    (W5_obs.Metrics.value
       (W5_os.Kernel.meters (Platform.kernel platform)).W5_os.Kernel.spawns);
  `Ok ()

let serve_cmd =
  let requests =
    Arg.(value & opt int 500 & info [ "requests"; "n" ] ~docv:"N"
           ~doc:"Number of requests to simulate.")
  in
  let enforcing =
    Arg.(value & opt bool true & info [ "enforcing" ] ~docv:"BOOL"
           ~doc:"Enable IFC enforcement (false = P1 baseline arm).")
  in
  let term = Term.(ret (const serve $ seed_arg $ users_arg $ requests $ enforcing)) in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Boot a provider, replay a random request trace, report outcomes.")
    term

(* ---- w5 audit: run a breach attempt, show the data-free trail ---- *)

let audit seed users =
  let society = build_society ~seed ~users ~enforcing:true in
  let platform = society.W5_workload.Populate.platform in
  let mal = W5_difc.Principal.make W5_difc.Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev:mal);
  let victim = List.hd society.W5_workload.Populate.users in
  let attacker = Client.make ~name:"attacker" (Gateway.handler platform) in
  Printf.printf "attacker runs mal/thief and mal/vandal against %s...\n" victim;
  let r = Client.get attacker "/app/mal/thief" ~params:[ ("target", victim) ] in
  Printf.printf "  thief:  HTTP %d\n" (Response.status_code r.Response.status);
  let r = Client.get attacker "/app/mal/vandal" ~params:[ ("target", victim) ] in
  Printf.printf "  vandal: HTTP %d\n" (Response.status_code r.Response.status);
  Printf.printf "\naudit log (denials only, no user data):\n";
  List.iter
    (fun e -> Format.printf "  %a@." W5_os.Audit.pp_entry e)
    (W5_os.Audit.denials (W5_os.Kernel.audit (Platform.kernel platform)));
  `Ok ()

let audit_cmd =
  let term = Term.(ret (const audit $ seed_arg $ users_arg)) in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run attack apps against a user and print the denial trail.")
    term

(* ---- w5 explain / provenance / audit-report: the flight recorder ---- *)

(* The scripted breach scenario the explanation tools run over: a
   malicious app taint-reads the victim's profile and the perimeter
   denies its export to the attacker; then a legitimate friend views
   the same profile, exercising the friends-only declassifier. Every
   path — denial, declassification, allow — is in the log. *)
let breach_scenario ~seed ~users =
  let society = build_society ~seed ~users ~enforcing:true in
  let platform = society.W5_workload.Populate.platform in
  let mal = W5_difc.Principal.make W5_difc.Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev:mal);
  let victim = List.hd society.W5_workload.Populate.users in
  let attacker = Client.make ~name:"attacker" (Gateway.handler platform) in
  ignore (Client.get attacker "/app/mal/thief" ~params:[ ("target", victim) ]);
  let friends_of user =
    let account = Platform.account_exn platform user in
    match Platform.read_user_record platform account ~file:"friends" with
    | Ok r -> W5_store.Record.get_list r "friends"
    | Error _ -> []
  in
  (match friends_of victim with
  | friend :: _ when List.mem friend society.W5_workload.Populate.users ->
      let client = W5_workload.Populate.login society friend in
      ignore (Client.get client "/app/core/social" ~params:[ ("user", victim) ])
  | _ -> ());
  (platform, victim)

let explain_denial seed users seq pid dot =
  let platform, _victim = breach_scenario ~seed ~users in
  let log = W5_os.Kernel.audit (Platform.kernel platform) in
  match W5_os.Explain.find_denial log ?seq ?pid () with
  | None -> `Error (false, "no matching denial in the audit log")
  | Some entry -> (
      let g = W5_os.Explain.graph log in
      Format.printf "denial: %a@.@." W5_os.Audit.pp_entry entry;
      match
        if dot then W5_os.Explain.explain_dot g entry
        else W5_os.Explain.explain_text g entry
      with
      | Error msg -> `Error (false, msg)
      | Ok rendered ->
          print_string rendered;
          print_newline ();
          `Ok ())

let explain_cmd =
  let seq =
    Arg.(value & opt (some int) None & info [ "seq" ] ~docv:"SEQ"
           ~doc:"Audit sequence number of the denial to explain.")
  in
  let pid =
    Arg.(value & opt (some int) None & info [ "pid" ] ~docv:"PID"
           ~doc:"Explain the most recent denial by this process.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ]
           ~doc:"Emit the causal chain as Graphviz DOT instead of text.")
  in
  let term =
    Term.(ret (const explain_denial $ seed_arg $ users_arg $ seq $ pid $ dot))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain a denial: the causal chain of audited events that put \
             the offending tags on the denied process.")
    term

let provenance seed users path pid =
  let platform, victim = breach_scenario ~seed ~users in
  let log = W5_os.Kernel.audit (Platform.kernel platform) in
  let g = W5_os.Explain.graph log in
  let print_histories target histories =
    if histories = [] then
      Printf.printf "%s carries no secrecy tags (per the retained log)\n"
        target
    else
      List.iter
        (fun (tag, edges) ->
          Printf.printf "%s: tag %s arrived via\n" target tag;
          List.iter
            (fun e ->
              print_string "  ";
              print_string (W5_obs.Provenance.render_edge g e);
              print_newline ())
            edges)
        histories
  in
  (match (path, pid) with
  | None, Some p ->
      print_histories
        (Printf.sprintf "pid %d" p)
        (W5_os.Explain.process_provenance g log ~pid:p)
  | Some path, _ -> print_histories path (W5_os.Explain.file_provenance g ~path)
  | None, None ->
      let path = Platform.user_file victim "profile" in
      print_histories path (W5_os.Explain.file_provenance g ~path));
  `Ok ()

let provenance_cmd =
  let path =
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"PATH"
           ~doc:"File to trace (defaults to the scenario victim's profile).")
  in
  let pid =
    Arg.(value & opt (some int) None & info [ "pid" ] ~docv:"PID"
           ~doc:"Trace a process's current tags instead of a file's.")
  in
  let term =
    Term.(ret (const provenance $ seed_arg $ users_arg $ path $ pid))
  in
  Cmd.v
    (Cmd.info "provenance"
       ~doc:"Per-tag history: which audited events put each secrecy tag on \
             a file or process.")
    term

let audit_report seed users =
  let platform, _ = breach_scenario ~seed ~users in
  print_string (W5_os.Explain.report (W5_os.Kernel.audit (Platform.kernel platform)));
  `Ok ()

let audit_report_cmd =
  let term = Term.(ret (const audit_report $ seed_arg $ users_arg)) in
  Cmd.v
    (Cmd.info "audit-report"
       ~doc:"Provider-side rollup of the audit log: declassifications by \
             gate, denials by reason/op/app, exports, tainted paths.")
    term

(* ---- w5 rank: the code-search view of a module ecosystem ---- *)

let rank seed modules top =
  let platform = Platform.create () in
  ignore
    (W5_workload.Populate.fill_dependency_graph ~seed platform ~modules
       ~imports_per_module:3);
  let registry = Platform.registry platform in
  let graph = W5_rank.Code_search.graph_of_registry registry in
  Printf.printf "modules=%d edges=%d pagerank-iterations=%d\n"
    (W5_rank.Depgraph.node_count graph)
    (W5_rank.Depgraph.edge_count graph)
    (W5_rank.Pagerank.iterations_to_converge graph);
  let results = W5_rank.Code_search.score_all registry in
  Printf.printf "top %d modules:\n" top;
  List.iteri
    (fun i r ->
      if i < top then
        Printf.printf "  %2d. %-16s score=%.4f pagerank=%.4f\n" (i + 1)
          r.W5_rank.Code_search.app_id r.W5_rank.Code_search.total
          r.W5_rank.Code_search.pagerank)
    results;
  `Ok ()

let rank_cmd =
  let modules =
    Arg.(value & opt int 50 & info [ "modules" ] ~docv:"N"
           ~doc:"Size of the synthetic module ecosystem.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"How many to print.")
  in
  let term = Term.(ret (const rank $ seed_arg $ modules $ top)) in
  Cmd.v
    (Cmd.info "rank" ~doc:"Rank a synthetic module ecosystem (code search, E5).")
    term

(* ---- w5 sync: two providers converging ---- *)

let sync_demo rounds fault_seed =
  let module Sync = W5_federation.Sync in
  let module Fault = W5_fault.Fault in
  let a = { Sync.platform = Platform.create (); provider_name = "east" } in
  let b = { Sync.platform = Platform.create (); provider_name = "west" } in
  let ok_s = function Ok v -> v | Error e -> failwith e in
  ignore (ok_s (Platform.signup a.Sync.platform ~user:"zoe" ~password:"pw"));
  ignore (ok_s (Platform.signup b.Sync.platform ~user:"zoe" ~password:"pw"));
  let faults = Option.map (fun seed -> Fault.of_seed ~seed ()) fault_seed in
  (match faults with
  | Some plan -> Printf.printf "fault plan: %s\n" (Fault.describe plan)
  | None -> ());
  let link =
    ok_s (Sync.establish ?faults ~a ~b ~user:"zoe" ~files:[ "profile"; "friends" ] ())
  in
  for round = 1 to rounds do
    let side, name = if round mod 2 = 0 then (a, "east") else (b, "west") in
    let account = Platform.account_exn side.Sync.platform "zoe" in
    ignore
      (Platform.write_user_record side.Sync.platform account
         ~file:"profile"
         (W5_store.Record.of_fields
            [ ("user", "zoe"); ("edited-on", name); ("round", string_of_int round) ]));
    match Sync.sync link with
    | Ok stats ->
        Printf.printf
          "round %2d: edit on %-4s | a->b %d, b->a %d, merged %d, retried %d, \
           timed-out %d, recovered %d, converged %b\n"
          round name stats.Sync.a_to_b stats.Sync.b_to_a stats.Sync.merged
          stats.Sync.retried stats.Sync.timed_out stats.Sync.recovered
          (Sync.converged link)
    | Error e ->
        (* a simulated provider death: the next round is the restart
           and begins with write-ahead intent recovery *)
        Printf.printf "round %2d: edit on %-4s | provider crashed (%s)\n" round
          name e
  done;
  (* drain the remaining schedule so the demo always ends converged *)
  let rec settle n =
    if n > 0 && not (Sync.converged link) then begin
      (match Sync.sync link with
      | Ok stats ->
          if stats.Sync.recovered > 0 then
            Printf.printf "recovery: replayed %d write-ahead intent(s)\n"
              stats.Sync.recovered
      | Error e -> Printf.printf "recovery round: crashed again (%s)\n" e);
      settle (n - 1)
    end
  in
  settle 10;
  (match faults with
  | Some plan ->
      let rendered = Fault.render_fired plan in
      if rendered <> "" then print_endline rendered;
      Printf.printf "faults fired: %d, schedule left: %d\n"
        (List.length (Fault.fired plan))
        (Fault.pending plan)
  | None -> ());
  Printf.printf "final: converged %b\n" (Sync.converged link);
  `Ok ()

let sync_cmd =
  let rounds =
    Arg.(value & opt int 6 & info [ "rounds" ] ~docv:"N" ~doc:"Edit/sync rounds.")
  in
  let faults =
    Arg.(value & opt (some int) None
         & info [ "faults" ] ~docv:"SEED"
             ~doc:
               "Inject a deterministic fault schedule (drops, delays, \
                duplicates, crashes) derived from $(docv). The same seed \
                replays the same run byte for byte.")
  in
  let term = Term.(ret (const sync_demo $ rounds $ faults)) in
  Cmd.v
    (Cmd.info "sync" ~doc:"Demonstrate cross-provider mirroring (E6).")
    term

(* ---- w5 trace: replay a generated workload and report; with
   --federated, the cross-provider distributed trace instead ---- *)

(* The scripted 3-provider faulty sync, merged into one causal tree:
   which hop dropped, who retried, where the crash hit and how the
   write-ahead recovery closed it — across all three tracers. *)
let federated_trace format =
  let outcome = W5_federation.Scenario.run () in
  let forest = W5_obs.Trace_merge.merge outcome.W5_federation.Scenario.spans in
  match format with
  | `Json -> print_endline (W5_obs.Trace_merge.to_json forest); `Ok ()
  | `Dot -> print_string (W5_obs.Trace_merge.to_dot forest); `Ok ()
  | `Text ->
      Printf.printf
        "federated trace: %s over %s (scripted faults on east~south)\n"
        W5_federation.Scenario.user
        (String.concat ", " W5_federation.Scenario.providers);
      List.iter print_endline outcome.W5_federation.Scenario.round_notes;
      Printf.printf "merged spans: %d\n\n" (W5_obs.Trace_merge.span_count forest);
      print_string (W5_obs.Trace_merge.to_text forest);
      `Ok ()

let trace seed users length mix_name federated format =
  if federated then federated_trace format
  else begin
  let society = build_society ~seed ~users ~enforcing:true in
  let mix =
    match mix_name with
    | "write-heavy" -> W5_workload.Trace.write_heavy
    | _ -> W5_workload.Trace.read_heavy
  in
  let rng = W5_workload.Rng.create ~seed:(seed + 100) in
  let actions = W5_workload.Trace.generate rng ~society ~mix ~length in
  Printf.printf "replaying %d %s actions over %d users...\n%!" length mix_name
    users;
  let t0 = Unix.gettimeofday () in
  let outcome = W5_workload.Trace.replay society actions in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "done in %.3fs (%.0f actions/s): ok %d, refused %d, throttled %d, failed %d\n"
    dt
    (float_of_int outcome.W5_workload.Trace.total /. dt)
    outcome.W5_workload.Trace.ok outcome.W5_workload.Trace.forbidden
    outcome.W5_workload.Trace.throttled outcome.W5_workload.Trace.failed;
  print_newline ();
  print_string (Admin.render (Admin.collect society.W5_workload.Populate.platform));
  (match Admin.suspicious_apps (Admin.collect society.W5_workload.Populate.platform) with
  | [] -> ()
  | apps ->
      Printf.printf "\nsuspicious apps (>=3 denials): %s\n"
        (String.concat ", " apps));
  `Ok ()
  end

let trace_cmd =
  let length =
    Arg.(value & opt int 400 & info [ "length"; "n" ] ~docv:"N"
           ~doc:"Number of actions in the trace.")
  in
  let mix =
    Arg.(value & opt string "read-heavy" & info [ "mix" ] ~docv:"MIX"
           ~doc:"Action mix: read-heavy or write-heavy.")
  in
  let federated =
    Arg.(value & flag
         & info [ "federated" ]
             ~doc:
               "Instead of a workload replay: run the scripted 3-provider \
                faulty sync and print the merged cross-provider trace \
                (injected faults, retries and the crash recovery as \
                annotated spans). Byte-reproducible.")
  in
  let format =
    format_arg text_json_dot `Text
      ~doc:"With --federated: text (default), json, or dot."
  in
  let term =
    Term.(ret (const trace $ seed_arg $ users_arg $ length $ mix $ federated
               $ format))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Generate a seeded action trace, replay it, print the provider \
          report; --federated merges the 3-provider faulty-sync trace instead.")
    term

(* ---- w5 health: federation peer health and gateway SLO ---- *)

let health () =
  let outcome = W5_federation.Scenario.run () in
  let h = W5_federation.Peer.health outcome.W5_federation.Scenario.mesh in
  let now = outcome.W5_federation.Scenario.health_now in
  print_string (W5_obs.Health.render h ~now);
  print_newline ();
  let slo = outcome.W5_federation.Scenario.slo in
  let slo_now = outcome.W5_federation.Scenario.slo_now in
  print_string (W5_obs.Health.Slo.render slo ~now:slo_now);
  let peer_sev =
    List.fold_left
      (fun acc r -> max acc (W5_obs.Health.severity r.W5_obs.Health.r_state))
      0
      (W5_obs.Health.report h ~now)
  in
  let sev =
    if W5_obs.Health.Slo.breached slo ~now:slo_now then max peer_sev 2
    else peer_sev
  in
  (* route through the shared severity→exit-code contract so health,
     vet and soak can never disagree on what a status means *)
  exit
    (W5_analysis.Severity.exit_code
       (W5_analysis.Severity.of_health_severity sev))

let health_cmd =
  let term = Term.(const health $ const ()) in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Federation health over the scripted 3-provider scenario: per-peer \
          sync health (last-success age, fault/retry rates, vector-clock \
          lag, hysteresis) plus east's per-route gateway SLO / error budget. \
          Exit status is the worst judgment (0 healthy, 2 degraded or SLO \
          breach, 3 unreachable).")
    term

(* ---- w5 export: a user's portable data bundle ---- *)

let export_user seed users who =
  let society = build_society ~seed ~users ~enforcing:true in
  let platform = society.W5_workload.Populate.platform in
  let user =
    match who with
    | Some user -> user
    | None -> List.hd society.W5_workload.Populate.users
  in
  match Platform.find_account platform user with
  | None -> `Error (false, "no such user: " ^ user)
  | Some account -> (
      match W5_federation.Migrate.export_bundle platform account with
      | Error e -> `Error (false, W5_os.Os_error.to_string e)
      | Ok bundle ->
          Printf.printf "# portable bundle for %s (%d entries)\n" user
            (List.length bundle);
          print_string (W5_federation.Migrate.encode_bundle bundle);
          print_newline ();
          `Ok ())

let export_cmd =
  let who =
    Arg.(value & opt (some string) None & info [ "user" ] ~docv:"USER"
           ~doc:"Which user to export (defaults to the first).")
  in
  let term = Term.(ret (const export_user $ seed_arg $ users_arg $ who)) in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Print a user's whole-account portable bundle (data takeout).")
    term

(* ---- w5 stats: the label-safe telemetry dump ---- *)

let stats seed users format =
  let society = build_society ~seed ~users ~enforcing:true in
  let platform = society.W5_workload.Populate.platform in
  let kernel = Platform.kernel platform in
  W5_obs.Tracer.set_enabled (W5_os.Kernel.tracer kernel) true;
  let everyone = society.W5_workload.Populate.users in
  (* Deterministic mix: everyone loads their own profile (allows), one
     photo listing for route diversity, and one provably-foreign view
     — a logged-in non-friend hitting someone's profile — so the
     friends-only declassifier refuses and the perimeter records an
     export denial. *)
  List.iter
    (fun user ->
      let client = W5_workload.Populate.login society user in
      ignore (Client.get client "/app/core/social" ~params:[ ("user", user) ]))
    everyone;
  (let u0 = List.hd everyone in
   let c0 = W5_workload.Populate.login society u0 in
   ignore
     (Client.get c0 "/app/core/photos"
        ~params:[ ("action", "list"); ("user", u0) ]));
  let friends_of user =
    let account = Platform.account_exn platform user in
    match Platform.read_user_record platform account ~file:"friends" with
    | Ok r -> W5_store.Record.get_list r "friends"
    | Error _ -> []
  in
  let stranger_pair =
    List.find_map
      (fun owner ->
        let friends = friends_of owner in
        List.find_map
          (fun viewer ->
            if viewer <> owner && not (List.mem viewer friends) then
              Some (viewer, owner)
            else None)
          everyone)
      everyone
  in
  (match stranger_pair with
  | None -> ()
  | Some (viewer, owner) ->
      let client = W5_workload.Populate.login society viewer in
      ignore (Client.get client "/app/core/social" ~params:[ ("user", owner) ]));
  (* static-analysis finding counts, bucketed by severity only — the
     label values are a closed set, so nothing user-derived can ride
     along into the exposition *)
  let st = W5_analysis.Static.capture platform in
  W5_analysis.Vet.export_metrics (W5_os.Kernel.metrics kernel)
    (W5_analysis.Vet.report st);
  let metrics = W5_os.Kernel.metrics kernel in
  (match format with
  | `Json -> print_string (W5_obs.Exposition.json metrics)
  | `Prometheus ->
      print_string (W5_obs.Exposition.prometheus metrics);
      (* the JSON exposition embeds p50/p95/p99 per histogram series;
         mirror them here as a separate quantile section *)
      let summaries = W5_obs.Exposition.summaries metrics in
      if summaries <> "" then begin
        print_string "\n# histogram quantiles (logical ticks)\n";
        print_string summaries
      end);
  print_newline ();
  let tracer = W5_os.Kernel.tracer kernel in
  Printf.printf "# traces dropped from the completed ring: %d\n"
    (W5_obs.Tracer.dropped tracer);
  (match W5_obs.Tracer.latest tracer with
  | None -> ()
  | Some span ->
      print_string "# last recorded trace (logical ticks)\n";
      print_string (W5_obs.Exposition.trace_tree span));
  `Ok ()

let stats_cmd =
  let format =
    format_arg [ ("prometheus", `Prometheus); ("json", `Json) ] `Prometheus
      ~doc:"Output format: prometheus (default) or json."
  in
  let term = Term.(ret (const stats $ seed_arg $ users_arg $ format)) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a deterministic request mix and dump the label-safe \
             telemetry: metrics plus the last request trace.")
    term

(* ---- w5 vet: static label-flow analysis of the whole platform ---- *)

let vet seed users format dot runtime_n =
  let society = W5_workload.Populate.build_showcase ~seed ~users () in
  let platform = society.W5_workload.Populate.platform in
  let st = W5_analysis.Static.capture platform in
  let runtime =
    match runtime_n with
    | None -> None
    | Some length ->
        (* Drive the soak workload *after* the snapshot, then check
           every observed flow edge against the static graph. *)
        let rng = W5_workload.Rng.create ~seed:(seed + 100) in
        let actions =
          W5_workload.Trace.generate rng ~society
            ~mix:W5_workload.Trace.read_heavy ~length
        in
        ignore (W5_workload.Trace.replay society actions);
        Some
          (W5_analysis.Vet.fold_audit st
             (W5_os.Kernel.audit (Platform.kernel platform)))
  in
  let report = W5_analysis.Vet.report ?runtime st in
  (match if dot then `Dot else format with
  | `Json -> print_string (W5_analysis.Vet.to_json report)
  | `Dot -> print_string (W5_analysis.Static.to_dot st)
  | `Text -> print_string (W5_analysis.Vet.to_text report));
  exit (W5_analysis.Vet.exit_code report)

let vet_cmd =
  let users =
    Arg.(value & opt (users_at_least 3) 6 & info [ "users" ] ~docv:"N"
           ~doc:"Number of users in the showcase society (at least 3).")
  in
  let format =
    format_arg text_json_dot `Text
      ~doc:"Output format: text (default), json, or dot."
  in
  let dot =
    Arg.(value & flag & info [ "dot" ]
           ~doc:"Shorthand for --format dot: the static flow graph in Graphviz.")
  in
  let runtime =
    Arg.(value & opt (some int) None & info [ "runtime" ] ~docv:"N"
           ~doc:"Also replay an $(docv)-action workload and check every \
                 audited flow edge against the static graph (the \
                 differential soundness pass).")
  in
  let term =
    Term.(ret (const vet $ seed_arg $ users $ format $ dot $ runtime))
  in
  Cmd.v
    (Cmd.info "vet"
       ~doc:"Static label-flow analysis of the whole platform: where every \
             tag can go, ranked findings, optional runtime soundness check. \
             Exit status reflects the worst finding (0 clean/info, \
             2 warning, 3 high, 4 critical or unsound).")
    term

(* ---- w5 perf: committed bench baselines and the regression gate ---- *)

let ( let* ) r f =
  match r with Error e -> `Error (false, e) | Ok v -> f v

let perf_dir_arg =
  Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR"
         ~doc:"Directory holding the committed BENCH_*.json baselines \
               (default: the current directory, i.e. the repo root).")

let perf_fresh_arg =
  Arg.(required & opt (some string) None & info [ "fresh" ] ~docv:"DIR"
         ~doc:"Directory holding a fresh run's BENCH_*.json files, as \
               written by bench/main.exe --json-dir $(docv).")

let perf_load_baselines dir =
  match W5_obs.Baseline.load_dir dir with
  | Error e -> Error e
  | Ok [] -> Error ("no BENCH_*.json baselines in " ^ dir)
  | Ok groups -> Ok groups

let perf_report dir =
  let* groups = perf_load_baselines dir in
  List.iter
    (fun (g : W5_obs.Baseline.group) ->
      Printf.printf "[%s]  (regression threshold +%.0f%%)\n"
        g.W5_obs.Baseline.g_name
        (100.0 *. W5_obs.Baseline.group_threshold g.W5_obs.Baseline.g_name);
      List.iter
        (fun (e : W5_obs.Baseline.entry) ->
          Printf.printf "  %-45s %12s/op   runs=%-6d r2=%.4f\n"
            e.W5_obs.Baseline.e_name
            (W5_obs.Baseline.pp_ns e.W5_obs.Baseline.e_ns)
            e.W5_obs.Baseline.e_runs e.W5_obs.Baseline.e_r2)
        g.W5_obs.Baseline.g_entries)
    groups;
  `Ok ()

let perf_report_cmd =
  let term = Term.(ret (const perf_report $ perf_dir_arg)) in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render the committed bench baselines: ns/op per test with \
             run counts, fit quality, and each group's regression \
             threshold.")
    term

let perf_diff dir fresh_dir format names_only =
  let* baseline = perf_load_baselines dir in
  let* fresh = W5_obs.Baseline.load_dir fresh_dir in
  let findings =
    W5_obs.Baseline.compare_runs ~names_only ~baseline ~fresh ()
  in
  (match format with
  | `Json -> print_string (W5_obs.Baseline.render_json findings)
  | `Text -> print_string (W5_obs.Baseline.render_text findings));
  if W5_obs.Baseline.has_regression findings then exit 1 else `Ok ()

let perf_diff_cmd =
  let format =
    format_arg [ ("text", `Text); ("json", `Json) ] `Text
      ~doc:"Output format: text (default) or json."
  in
  let names_only =
    Arg.(value & flag & info [ "schema-only" ]
           ~doc:"Compare structure only — groups and test names, no \
                 timing values. This is what CI's smoke-mode gate runs: \
                 smoke timings are meaningless, vanished benches are not.")
  in
  let term =
    Term.(ret (const perf_diff $ perf_dir_arg $ perf_fresh_arg $ format
               $ names_only))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare a fresh bench run against the committed baselines \
             under per-group relative thresholds. Exits 1 on a \
             regression or a vanished group/test; improvements and new \
             entries are informational.")
    term

let perf_record dir fresh_dir =
  let* fresh =
    match W5_obs.Baseline.load_dir fresh_dir with
    | Ok [] -> Error ("no BENCH_*.json files in " ^ fresh_dir)
    | r -> r
  in
  W5_obs.Baseline.save_dir ~dir fresh;
  List.iter
    (fun (g : W5_obs.Baseline.group) ->
      Printf.printf "recorded %s (%d tests)\n"
        (W5_obs.Baseline.filename ~group_name:g.W5_obs.Baseline.g_name)
        (List.length g.W5_obs.Baseline.g_entries))
    fresh;
  `Ok ()

let perf_record_cmd =
  let term = Term.(ret (const perf_record $ perf_dir_arg $ perf_fresh_arg)) in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Promote a fresh run's BENCH_*.json files to committed \
             baselines (re-encodes through the schema, so the files are \
             byte-stable).")
    term

let perf_schema dir =
  let* groups = perf_load_baselines dir in
  print_string (W5_obs.Baseline.schema_skeleton groups);
  `Ok ()

let perf_schema_cmd =
  let term = Term.(ret (const perf_schema $ perf_dir_arg)) in
  Cmd.v
    (Cmd.info "schema"
       ~doc:"Print the baseline schema skeleton — group and test names \
             plus field layout, none of the values. CI byte-diffs this \
             against test/golden/bench_schema.txt.")
    term

let perf_cmd =
  Cmd.group
    (Cmd.info "perf"
       ~doc:"Performance baselines: report committed numbers, diff a \
             fresh run against them, record new baselines.")
    [ perf_report_cmd; perf_diff_cmd; perf_record_cmd; perf_schema_cmd ]

(* ---- w5 soak: scripted heavy traffic through the scheduler ---- *)

let soak seed users requests waves quantum rate =
  let cfg =
    {
      W5_workload.Soak.default_config with
      W5_workload.Soak.seed;
      users;
      requests;
      waves;
      quantum;
      rate;
    }
  in
  let _, summary = W5_workload.Soak.run cfg in
  print_string (W5_workload.Soak.render summary);
  (* a leaked (or unlabeled) canary is a perimeter breach: exit with
     the shared Critical code rather than a soak-private convention *)
  if
    summary.W5_workload.Soak.s_canary_leaks > 0
    || summary.W5_workload.Soak.s_unlabeled_canaries > 0
  then
    exit (W5_analysis.Severity.exit_code (Some W5_analysis.Severity.Critical))
  else `Ok ()

let soak_cmd =
  let requests =
    Arg.(value & opt int 1200 & info [ "requests"; "n" ] ~docv:"N"
           ~doc:"Requests to admit across the whole run.")
  in
  let users =
    Arg.(value & opt (users_at_least 1) 50 & info [ "users" ] ~docv:"N"
           ~doc:"Users in the synthetic society.")
  in
  let waves =
    Arg.(value & opt int 1 & info [ "waves" ] ~docv:"N"
           ~doc:"Admission waves the trace is split into (1 = everything \
                 in flight at once).")
  in
  let quantum =
    Arg.(value & opt int W5_os.Sched.default_quantum
         & info [ "quantum" ] ~docv:"TICKS"
             ~doc:"Scheduler ticks per slice.")
  in
  let rate =
    Arg.(value & opt (some (pair ~sep:',' int int)) None
         & info [ "rate" ] ~docv:"CAP,REFILL"
             ~doc:"Token-bucket throttle per client (capacity, refill per \
                   tick); absent = unthrottled.")
  in
  let term =
    Term.(ret (const soak $ seed_arg $ users $ requests $ waves $ quantum
               $ rate))
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Admit a whole seeded trace through the gateway, interleave \
             every in-flight request with the deterministic scheduler, and \
             print the soak summary (canary leaks, preemptions, digest). \
             Same seed, same bytes.")
    term

(* ---- w5 experiments: the index ---- *)

let experiments () =
  print_string
    "Experiment index (full table in DESIGN.md \xc2\xa74, results in EXPERIMENTS.md)\n\
     \n\
    \  F1  Figure 1 silo baseline .......... bench fig1-baseline, examples/quickstart.exe\n\
    \  F2  Figure 2 W5 meta-application .... bench e2e-request, examples/quickstart.exe\n\
    \  E1  boilerplate privacy ............. test integration+apps, bench export-check\n\
    \  E2  declassifiers ................... test integration, bench declassifier\n\
    \  E3  write protection ................ test os/apps (vandal)\n\
    \  E4  read/integrity protection ....... test integration (read protection e2e)\n\
    \  E5  code search ..................... test rank, bench pagerank, w5 rank\n\
    \  E6  multi-provider federation ....... test federation, bench federation-sync, w5 sync\n\
    \  E7  resource allocation ............. test os/apps (hog, spammer), bench syscall\n\
    \  E8  covert channels ................. test store, bench query-taint\n\
    \  E9  client-side JavaScript .......... test http/integration, bench client-filter\n\
    \  E10 server-side mashup .............. test apps, examples/photo_mashup.exe\n\
    \  E11 fork + version pinning .......... test platform/integration\n\
    \  E12 recommendation/dating/chameleon . test apps, examples/recommendation.exe\n\
    \  P1  enforcement overhead ............ bench e2e-request (on vs off)\n\
    \  E13 messaging (safe queries) ........ test apps (message*), bench query-taint\n\
    \  E14 transforming declassifiers ...... test apps (calendar, polls)\n\
    \  E15 groups (restricted tags) ........ test platform/apps (group*), bench collaboration\n\
    \  E16 DNS front-end ................... test http/integration (dns*)\n\
    \  E17 e-mail is an export ............. test apps (digest email)\n\
    \  E18 provider operations ............. test platform (admin, limits), bench durability\n\
    \  E19 data portability ................ test federation (migrate*, takeout), w5 export\n\
    \  E20 static vetting (\xc2\xa73.2) ........... test analysis, bench vet, w5 vet\n\
    \  OBS federation telemetry (\xc2\xa73.5) ..... test trace, bench trace-health, w5 trace --federated, w5 health\n\
    \  SCHED concurrent serving (\xc2\xa73.5) ...... test sched/soak, bench scheduler, w5 soak\n";
  `Ok ()

let experiments_cmd =
  let term = Term.(ret (const experiments $ const ())) in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Print the experiment-to-artifact index.")
    term

let main_cmd =
  let doc = "World Wide Web Without Walls — simulated provider driver" in
  let info = Cmd.info "w5" ~version:"1.0" ~doc in
  Cmd.group info
    [ serve_cmd; audit_cmd; explain_cmd; provenance_cmd; audit_report_cmd;
      rank_cmd; sync_cmd; trace_cmd; health_cmd; export_cmd; stats_cmd;
      vet_cmd; perf_cmd; soak_cmd; experiments_cmd ]

let () = exit (Cmd.eval main_cmd)
