(* Soak test: a long seeded trace over a populated society, checked
   against global invariants rather than per-request expectations.

   Invariants after ~1000 mixed actions (plus attacks):
   - no request ever produced an unexpected status (5xx/4xx other than
     the sanctioned 403/429);
   - every export of a user's data went to the owner or through one of
     their declassifiers (spot-checked: no client body carries another
     user's planted canary unless befriended);
   - the audit log accounts for every perimeter refusal;
   - the filesystem never contains a bottom-labeled copy of a canary. *)

open W5_difc
open W5_http
open W5_platform
open W5_workload

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let canary user = "CANARY-" ^ user ^ "-END"

let contains = W5_http.Substring.contains

(* The noninterference spot check, reusable per platform: no
   bottom-labeled file anywhere may contain one of [needles] — every
   copy of protected bytes (including ones a transfer agent imported
   from a peer provider) must carry a secrecy label. *)
let bare_canary_paths platform needles =
  let fs = W5_os.Kernel.fs (Platform.kernel platform) in
  let rec walk path bad =
    match W5_os.Fs.stat fs path with
    | Error _ -> bad
    | Ok st -> (
        match st.W5_os.Fs.kind with
        | W5_os.Fs.Directory -> (
            match W5_os.Fs.readdir fs path with
            | Error _ -> bad
            | Ok (names, _) ->
                List.fold_left
                  (fun bad name ->
                    walk (if path = "/" then "/" ^ name else path ^ "/" ^ name) bad)
                  bad names)
        | W5_os.Fs.Regular -> (
            match W5_os.Fs.read fs path with
            | Error _ -> bad
            | Ok (data, labels) ->
                if
                  Label.is_empty labels.Flow.secrecy
                  && List.exists (contains data) needles
                then path :: bad
                else bad))
  in
  walk "/" []

let test_soak ~seed () =
  let society =
    Populate.build ~seed ~users:12 ~friends_per_user:3 ~photos_per_user:2
      ~blog_posts_per_user:2 ()
  in
  let platform = society.Populate.platform in
  (* plant a canary in every profile *)
  List.iter
    (fun user ->
      let account = Platform.account_exn platform user in
      match
        Platform.write_user_record platform account ~file:"profile"
          (W5_store.Record.of_fields [ ("user", user); ("canary", canary user) ])
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed: %s" (W5_os.Os_error.to_string e))
    society.Populate.users;
  (* malicious apps in the mix, enabled by everyone *)
  let mal = Principal.make Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev:mal);
  List.iter
    (fun user ->
      match Platform.enable_app platform ~user ~app:"mal/thief" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    society.Populate.users;
  (* the long mixed trace *)
  let rng = Rng.create ~seed:(seed + 1) in
  let actions =
    Trace.generate rng ~society ~mix:Trace.read_heavy ~length:800
  in
  let outcome = Trace.replay society actions in
  check int_c "no unexpected failures" 0 outcome.Trace.failed;
  check bool_c "mostly served" true (outcome.Trace.ok > 400);
  (* interleave thief probes from every user against random targets *)
  let clients =
    List.map (fun u -> (u, Populate.login society u)) society.Populate.users
  in
  List.iter
    (fun (user, client) ->
      let target = Rng.pick rng society.Populate.users in
      if target <> user then
        ignore (Client.get client "/app/mal/thief" ~params:[ ("target", target) ]))
    clients;
  (* INVARIANT: nobody ever saw a canary that is not their own, unless
     its owner's friends-only declassifier approved them *)
  let friends_of user =
    let account = Platform.account_exn platform user in
    match Platform.read_user_record platform account ~file:"friends" with
    | Ok r -> W5_store.Record.get_list r "friends"
    | Error _ -> []
  in
  List.iter
    (fun (viewer, client) ->
      List.iter
        (fun owner ->
          if viewer <> owner && not (List.mem viewer (friends_of owner)) then
            check bool_c
              (Printf.sprintf "%s never saw %s's canary" viewer owner)
              false
              (Client.saw client (canary owner)))
        society.Populate.users)
    clients;
  (* INVARIANT: no bottom-labeled file anywhere contains a canary *)
  check (Alcotest.list Alcotest.string) "no unlabeled canary copies" []
    (bare_canary_paths platform (List.map canary society.Populate.users));
  (* INVARIANT: the audit log recorded at least one export denial per
     thief probe that got a 403 *)
  let export_denials =
    List.length
      (List.filter
         (fun e ->
           match e.W5_os.Audit.event with
           | W5_os.Audit.Export_attempted { decision = Error _; _ } -> true
           | _ -> false)
         (W5_os.Audit.entries (W5_os.Kernel.audit (Platform.kernel platform))))
  in
  check bool_c "export denials recorded" true (export_denials > 0);
  (* the society is still fully functional afterwards *)
  let u0 = List.hd society.Populate.users in
  let c = Populate.login society u0 in
  let r = Client.get c "/app/core/social" ~params:[ ("user", u0) ] in
  check int_c "still serving" 200 (Response.status_code r.Response.status)

(* ---- faulty federation soak ----

   Three providers gossip one roaming user's records while a seeded
   fault plan drops, delays, duplicates, and crashes their messages.
   Concurrent edits keep landing mid-fault; once the schedule drains
   the mesh must converge, and no provider may ever end up holding a
   bottom-labeled copy of the canary — retries, write-ahead intent
   replays, and duplicate deliveries all travel the same labeled path
   as clean syncs. *)

let ok_str = function Ok v -> v | Error e -> Alcotest.fail e

let test_faulty_federation_soak ~seed () =
  let user = "zoe" in
  let mesh = W5_federation.Peer.create () in
  List.iter
    (fun name ->
      let platform = Platform.create () in
      (match Platform.signup platform ~user ~password:"pw" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      ok_str (W5_federation.Peer.add_provider mesh ~name platform))
    [ "east"; "west"; "south" ];
  let plan =
    W5_fault.Fault.of_seed ~drops:6 ~delays:2 ~duplicates:2 ~crashes:2 ~seed ()
  in
  (* the link handshake itself can crash; links are only recorded once
     every pair succeeds, so retrying is safe *)
  let rec link attempt =
    match
      W5_federation.Peer.link_user ~faults:plan mesh ~user
        ~files:[ "profile"; "notes" ]
    with
    | Ok () -> ()
    | Error _ when attempt < 6 -> link (attempt + 1)
    | Error e -> Alcotest.failf "link_user: %s" e
  in
  link 1;
  let providers = W5_federation.Peer.providers mesh in
  let write_on (name, platform) ~file fields =
    let account = Platform.account_exn platform user in
    match
      Platform.write_user_record platform account ~file
        (W5_store.Record.of_fields fields)
    with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "write on %s: %s" name (W5_os.Os_error.to_string e)
  in
  write_on (List.hd providers) ~file:"profile"
    [ ("user", user); ("canary", canary user) ];
  (* concurrent edits under fire: every round two providers write, then
     the mesh gossips; crashed rounds are tolerated and retried *)
  let crashes = ref 0 in
  let n = List.length providers in
  for round = 1 to 12 do
    let pick i = List.nth providers ((round + i) mod n) in
    write_on (pick 0) ~file:"notes"
      [ ("user", user); (Printf.sprintf "round%d" round, canary user) ];
    write_on (pick 1) ~file:"notes"
      [ ("user", user); (Printf.sprintf "echo%d" round, canary user) ];
    match W5_federation.Peer.sync_round mesh ~user with
    | Ok _ -> ()
    | Error _ -> incr crashes
  done;
  (* settle: drain the rest of the schedule (consultations advance it
     even when no fault fires) and gossip to a fixed point *)
  let rec settle budget =
    if budget = 0 then Alcotest.fail "faulty mesh did not converge"
    else
      match W5_federation.Peer.sync_round mesh ~user with
      | Error _ ->
          incr crashes;
          settle (budget - 1)
      | Ok 0
        when W5_fault.Fault.pending plan = 0
             && W5_federation.Peer.converged mesh ~user ->
          ()
      | Ok _ -> settle (budget - 1)
  in
  settle 40;
  check int_c "schedule drained" 0 (W5_fault.Fault.pending plan);
  (* the invariant the whole exercise exists for: no provider holds an
     unlabeled copy of the canary, no matter which faulty path the
     bytes took to get there *)
  List.iter
    (fun (name, platform) ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "no unlabeled canary on %s" name)
        []
        (bare_canary_paths platform [ canary user ]))
    providers;
  (* and every replica agrees on the final notes *)
  let note (_, platform) =
    let account = Platform.account_exn platform user in
    match Platform.read_user_record platform account ~file:"notes" with
    | Ok r -> W5_store.Record.encode r
    | Error e -> Alcotest.failf "read notes: %s" (W5_os.Os_error.to_string e)
  in
  match providers with
  | first :: rest ->
      List.iter
        (fun p -> check Alcotest.string "replicas agree" (note first) (note p))
        rest
  | [] -> assert false

(* ---- scheduled soak: heavy traffic through the interleaving
   scheduler ----

   The Soak harness admits a whole wave of requests — authenticated,
   routed, throttled, spawned — before a seeded scheduler interleaves
   all the in-flight application processes at syscall granularity.
   These tests pin the harness's own invariants: real concurrency
   (1000+ simultaneously in-flight requests, preemption actually
   happening), zero cross-user canary leaks under interleaving, and
   same-seed determinism down to the byte. *)

let test_scheduled_soak_heavy () =
  let _, s = Soak.run Soak.default_config in
  check int_c "all requests admitted" s.Soak.s_requests s.Soak.s_submitted;
  check bool_c "1000+ requests in flight at once" true
    (s.Soak.s_peak_in_flight >= 1000);
  check bool_c "scheduler really interleaved" true (s.Soak.s_preemptions > 0);
  check bool_c "deep run queue" true (s.Soak.s_max_runq >= 1000);
  check int_c "no unexpected statuses" 0 s.Soak.s_failed;
  (* targets are uniform over all 50 users and the friend graph is
     sparse, so most cross-user views are sanctioned 403s — the
     denials ARE the enforcement being exercised under load *)
  check bool_c "plenty served" true (s.Soak.s_ok >= s.Soak.s_requests / 10);
  check bool_c "enforcement exercised" true (s.Soak.s_forbidden > 0);
  check int_c "no cross-user canary leaks" 0 s.Soak.s_canary_leaks;
  check int_c "no unlabeled canary copies" 0 s.Soak.s_unlabeled_canaries;
  check int_c "no processes lost to quotas" 0 s.Soak.s_killed

let small_config ~seed =
  { Soak.default_config with Soak.seed; users = 20; requests = 300 }

let test_scheduled_soak_deterministic ~seed () =
  let p1, s1 = Soak.run (small_config ~seed) in
  let p2, s2 = Soak.run (small_config ~seed) in
  (* same seed: byte-identical audit log + store state (tag ids modulo
     the process-global counter offset), and an identical summary *)
  check Alcotest.string "byte-identical state fingerprints"
    (Soak.fingerprint p1.Populate.platform)
    (Soak.fingerprint p2.Populate.platform);
  check Alcotest.string "identical rendered summaries" (Soak.render s1)
    (Soak.render s2);
  check Alcotest.string "identical digests" s1.Soak.s_digest s2.Soak.s_digest;
  check int_c "no leaks either run" 0 (s1.Soak.s_canary_leaks + s2.Soak.s_canary_leaks)

(* mid-run fault injection: after the first wave, the provider
   throttles the front door AND joins a faulty federation mesh; sync
   rounds run under fire between the remaining waves. Load keeps
   flowing; denials stay sanctioned (429, not 5xx); the canary that
   gossips to the remote provider keeps its labels the whole way. *)
let test_scheduled_soak_mid_run_faults ~seed () =
  let mesh = W5_federation.Peer.create () in
  let plan =
    W5_fault.Fault.of_seed ~drops:4 ~delays:2 ~duplicates:2 ~crashes:1 ~seed ()
  in
  let roamer = ref None in
  let sync_crashes = ref 0 in
  let between_waves w (society : Populate.society) =
    let platform = society.Populate.platform in
    if w = 0 then begin
      Platform.set_rate_limit platform
        (Some (Rate_limit.create ~capacity:3 ~refill_per_tick:0 ()));
      let user = List.hd society.Populate.users in
      let remote = Platform.create () in
      (match Platform.signup remote ~user ~password:"pw" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      ok_str (W5_federation.Peer.add_provider mesh ~name:"home" platform);
      ok_str (W5_federation.Peer.add_provider mesh ~name:"away" remote);
      let rec link attempt =
        match
          W5_federation.Peer.link_user ~faults:plan mesh ~user
            ~files:[ "profile" ]
        with
        | Ok () -> ()
        | Error _ when attempt < 6 -> link (attempt + 1)
        | Error e -> Alcotest.failf "link_user: %s" e
      in
      link 1;
      roamer := Some (user, remote)
    end
    else
      match !roamer with
      | None -> ()
      | Some (user, _) ->
          (* a mid-run edit, so the between-wave gossip pushes real
             transfers through the fault schedule *)
          let account = Platform.account_exn platform user in
          (match
             Platform.write_user_record platform account ~file:"profile"
               (W5_store.Record.of_fields
                  [
                    ("user", user);
                    ("canary", canary user);
                    (Printf.sprintf "wave%d" w, canary user);
                  ])
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "mid-run write: %s" (W5_os.Os_error.to_string e));
          for _ = 1 to 4 do
            match W5_federation.Peer.sync_round mesh ~user with
            | Ok _ -> ()
            | Error _ -> incr sync_crashes
          done
  in
  let cfg =
    {
      Soak.default_config with
      Soak.seed;
      users = 16;
      requests = 360;
      waves = 3;
      quantum = 3;
    }
  in
  let society, s = Soak.run ~between_waves cfg in
  let platform = society.Populate.platform in
  (* the throttle bit mid-run: later waves got sanctioned 429s *)
  check bool_c "mid-run throttle took effect" true (s.Soak.s_throttled > 0);
  check bool_c "first wave still served" true (s.Soak.s_ok > 0);
  check int_c "no unexpected statuses under faults" 0 s.Soak.s_failed;
  (* throttling is the user's problem, not an availability breach *)
  let kernel = Platform.kernel platform in
  check bool_c "SLO not breached by throttling" false
    (W5_obs.Health.Slo.breached (Gateway.slo_of platform)
       ~now:(W5_os.Kernel.tick kernel));
  check int_c "no leaks under faults" 0 s.Soak.s_canary_leaks;
  check int_c "no unlabeled copies under faults" 0 s.Soak.s_unlabeled_canaries;
  (* settle the faulty mesh and check the roamed canary stayed labeled *)
  match !roamer with
  | None -> Alcotest.fail "fault injection never ran"
  | Some (user, remote) ->
      (* settle on convergence; faults whose slot never saw a transfer
         are allowed to stay pending (the soak may legitimately finish
         before the whole plan fires) *)
      let rec settle budget =
        if budget = 0 then Alcotest.fail "faulty mesh did not converge"
        else
          match W5_federation.Peer.sync_round mesh ~user with
          | Error _ ->
              incr sync_crashes;
              settle (budget - 1)
          | Ok 0 when W5_federation.Peer.converged mesh ~user -> ()
          | Ok _ -> settle (budget - 1)
      in
      settle 40;
      check (Alcotest.list Alcotest.string) "no unlabeled canary on remote" []
        (Soak.unlabeled_canary_paths remote ~needles:[ Soak.canary user ])

(* quota kill mid-request: a CPU hog admitted alongside normal
   traffic dies to its quota inside the drain. The gateway answers
   429, the kill and the quota hit are audited (the killed process's
   audit batch flushed), neighbours are unharmed, and the SLO ledger
   treats the 429 as served — not as an availability breach. *)
let test_scheduled_quota_kill ~seed () =
  let society =
    Populate.build ~seed ~users:6 ~friends_per_user:2 ~photos_per_user:1
      ~blog_posts_per_user:1 ()
  in
  let platform = society.Populate.platform in
  let mal = Principal.make Principal.Developer "mal" in
  ignore (W5_apps.Malicious.publish_all platform ~dev:mal);
  let u0 = List.hd society.Populate.users in
  (match Platform.enable_app platform ~user:u0 ~app:"mal/hog" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let jar_of user =
    let client = Populate.login society user in
    match Client.cookies client with
    | [] -> Headers.empty
    | jar ->
        Headers.set Headers.empty "Cookie"
          (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) jar))
  in
  let pendings =
    List.map
      (fun user ->
        let target =
          if user = u0 then "/app/mal/hog"
          else "/app/core/social?user=" ^ user
        in
        ( user,
          Gateway.submit platform
            (Request.make ~headers:(jar_of user) ~client:user Request.GET
               target) ))
      society.Populate.users
  in
  W5_os.Sched.drain
    (W5_os.Sched.create ~quantum:2
       ~policy:(W5_os.Sched.Seeded seed)
       (Platform.kernel platform));
  List.iter
    (fun (user, pending) ->
      let r = Gateway.conclude platform pending in
      if user = u0 then
        check int_c "hog request answered 429" 429
          (Response.status_code r.Response.status)
      else
        check int_c
          (Printf.sprintf "neighbour %s unharmed" user)
          200
          (Response.status_code r.Response.status))
    pendings;
  let entries =
    W5_os.Audit.entries (W5_os.Kernel.audit (Platform.kernel platform))
  in
  let kinds =
    List.map (fun e -> W5_os.Audit.event_kind e.W5_os.Audit.event) entries
  in
  check bool_c "quota hit audited" true (List.mem "quota_hit" kinds);
  check bool_c "kill audited" true
    (List.exists
       (fun e ->
         match e.W5_os.Audit.event with
         | W5_os.Audit.Killed { reason } ->
             String.length reason >= 5 && String.sub reason 0 5 = "quota"
         | _ -> false)
       entries);
  let now = W5_os.Kernel.tick (Platform.kernel platform) in
  let slo = Gateway.slo_of platform in
  check bool_c "429 does not breach the SLO" false
    (W5_obs.Health.Slo.breached slo ~now);
  check bool_c "slo saw the traffic" true
    (List.exists
       (fun (row : W5_obs.Health.Slo.row) -> row.W5_obs.Health.Slo.sr_total > 0)
       (W5_obs.Health.Slo.report slo ~now))

(* CI runs the scheduled soak under a run-derived seed so every
   pipeline explores a fresh interleaving (same pattern as
   W5_FAULT_SEED in test_fault). *)
let env_seeds =
  match Option.bind (Sys.getenv_opt "W5_SOAK_SEED") int_of_string_opt with
  | Some seed ->
      Printf.printf "test_soak: W5_SOAK_SEED=%d\n%!" seed;
      [ seed ]
  | None -> []

let suite =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "soak: 800-action trace + attacks (seed %d)" seed)
        `Slow (test_soak ~seed))
    [ 1234; 777; 31337 ]
  @ List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "soak: faulty 3-provider federation (seed %d)" seed)
          `Slow
          (test_faulty_federation_soak ~seed))
      [ 42; 9001 ]
  @ [
      Alcotest.test_case "scheduled soak: 1200 concurrent requests" `Slow
        test_scheduled_soak_heavy;
    ]
  @ List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "scheduled soak: same seed, same bytes (seed %d)"
             seed)
          `Slow
          (test_scheduled_soak_deterministic ~seed))
      ([ 42 ] @ env_seeds)
  @ List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "scheduled soak: mid-run faults (seed %d)" seed)
          `Slow
          (test_scheduled_soak_mid_run_faults ~seed))
      ([ 7 ] @ env_seeds)
  @ List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "scheduled soak: quota kill mid-request (seed %d)"
             seed)
          `Slow
          (test_scheduled_quota_kill ~seed))
      ([ 5 ] @ env_seeds)
