(* Tests for lib/analysis: finding construction, label-safe finding
   metrics, the golden vet report, the shared lattice laws between the
   runtime Label and the analyzer's abstract domain, and the
   differential soundness property (static must over-approximate
   dynamic) over randomized platform configurations. *)

open W5_difc
open W5_platform
open W5_analysis

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ---- helpers ---- *)

let signup platform user =
  match Platform.signup platform ~user ~password:"pw" with
  | Ok account -> account
  | Error e -> Alcotest.failf "signup %s: %s" user e

let kernel platform = Platform.kernel platform

let findings_of platform = Vet.analyze (Static.capture platform)

let has_finding pred platform = List.exists pred (findings_of platform)

let nop_handler _ctx _env = ()

(* The registry's default source is [Closed_binary]; these tests care
   about the distinction, so default to open here. *)
let publish_app platform ~dev ~name ?(source = App_registry.Open_source "src")
    ?imports ?embeds () =
  match
    App_registry.publish (Platform.registry platform)
      ~dev:(Principal.make Principal.Developer dev)
      ~name ~version:"1.0" ~source ?imports ?embeds nop_handler
  with
  | Ok app -> app.App_registry.id
  | Error e -> Alcotest.failf "publish %s/%s: %s" dev name e

(* ---- finding unit tests: each kind, constructed from scratch ---- *)

let test_enforcement_off () =
  let platform = Platform.create ~enforcing:false () in
  ignore (signup platform "alice");
  match findings_of platform with
  | Vet.Enforcement_off :: _ -> ()
  | _ -> Alcotest.fail "expected Enforcement_off first"

let test_no_rule () =
  let platform = Platform.create () in
  let _alice = signup platform "alice" in
  check bool_c "bare signup leaves the secret tag unexportable" true
    (has_finding
       (function Vet.No_rule { tag } -> tag = "alice.secret" | _ -> false)
       platform);
  let st = Static.capture platform in
  let info = Option.get (Static.find_tag st "alice.secret") in
  check bool_c "disposition owner-only" true
    (Static.disposition st info = Static.Owner_only)

let test_broken_rule_missing () =
  let platform = Platform.create () in
  let alice = signup platform "alice" in
  Policy.authorize_declassifier alice.Account.policy
    ~tag:alice.Account.secret_tag ~gate:"declass/alice/nope";
  check bool_c "rule through unregistered gate" true
    (has_finding
       (function
         | Vet.Broken_rule { tag = "alice.secret"; gate = "declass/alice/nope";
                             missing = true } -> true
         | _ -> false)
       platform)

let test_broken_rule_powerless () =
  let platform = Platform.create () in
  let alice = signup platform "alice" in
  W5_os.Kernel.register_gate (kernel platform) ~name:"declass/alice/weak"
    ~owner:alice.Account.principal ~caps:Capability.Set.empty
    ~entry:(fun _ _ -> ());
  Policy.authorize_declassifier alice.Account.policy
    ~tag:alice.Account.secret_tag ~gate:"declass/alice/weak";
  check bool_c "gate lacks t-" true
    (has_finding
       (function
         | Vet.Broken_rule { gate = "declass/alice/weak"; missing = false; _ } ->
             true
         | _ -> false)
       platform)

let test_foreign_gate () =
  let platform = Platform.create () in
  let alice = signup platform "alice" in
  let evil = Principal.make Principal.Developer "evil" in
  W5_os.Kernel.register_gate (kernel platform) ~name:"declass/evil/leak"
    ~owner:evil
    ~caps:(Capability.Set.of_list
             [ Capability.make alice.Account.secret_tag Capability.Minus ])
    ~entry:(fun _ _ -> ());
  Policy.authorize_declassifier alice.Account.policy
    ~tag:alice.Account.secret_tag ~gate:"declass/evil/leak";
  check bool_c "authorized gate owned by foreign principal" true
    (has_finding
       (function
         | Vet.Foreign_gate { tag = "alice.secret"; gate_owner = "evil"; _ } ->
             true
         | _ -> false)
       platform)

let test_unguarded_export () =
  let platform = Platform.create () in
  let alice = signup platform "alice" in
  let bob = signup platform "bob" in
  bob.Account.caps <-
    Capability.Set.add
      (Capability.make alice.Account.secret_tag Capability.Minus)
      bob.Account.caps;
  check bool_c "foreign t- in an account capability set" true
    (has_finding
       (function
         | Vet.Unguarded_export { tag = "alice.secret"; holder } ->
             holder = "account:bob"
         | _ -> false)
       platform);
  check bool_c "surfaced by the snapshot too" true
    (Static.foreign_minus (Static.capture platform)
     = [ ("bob", "alice.secret") ])

let test_overbroad_and_dead_gate () =
  let platform = Platform.create () in
  let alice = signup platform "alice" in
  let bob = signup platform "bob" in
  W5_os.Kernel.register_gate (kernel platform) ~name:"declass/alice/wide"
    ~owner:alice.Account.principal
    ~caps:(Capability.Set.of_list
             [ Capability.make alice.Account.secret_tag Capability.Minus;
               Capability.make bob.Account.secret_tag Capability.Minus ])
    ~entry:(fun _ _ -> ());
  Policy.authorize_declassifier alice.Account.policy
    ~tag:alice.Account.secret_tag ~gate:"declass/alice/wide";
  check bool_c "t- beyond what policies route" true
    (has_finding
       (function
         | Vet.Overbroad_gate { gate = "declass/alice/wide"; extra } ->
             extra = [ "bob.secret" ]
         | _ -> false)
       platform);
  (* A gate nobody routes through is dead, not overbroad. *)
  W5_os.Kernel.register_gate (kernel platform) ~name:"declass/alice/unused"
    ~owner:alice.Account.principal
    ~caps:(Capability.Set.of_list
             [ Capability.make alice.Account.secret_tag Capability.Minus ])
    ~entry:(fun _ _ -> ());
  let fs = findings_of platform in
  check bool_c "dead gate reported" true
    (List.exists
       (function
         | Vet.Dead_gate { gate = "declass/alice/unused" } -> true
         | _ -> false)
       fs);
  check bool_c "dead gate not double-reported as overbroad" false
    (List.exists
       (function
         | Vet.Overbroad_gate { gate = "declass/alice/unused"; _ } -> true
         | _ -> false)
       fs)

let test_closed_cycle_and_dangling () =
  let platform = Platform.create () in
  ignore (signup platform "alice");
  let a =
    publish_app platform ~dev:"deva" ~name:"a" ~imports:[ "devb/b" ] ()
  in
  let b =
    publish_app platform ~dev:"devb" ~name:"b"
      ~source:App_registry.Closed_binary ~imports:[ "deva/a" ] ()
  in
  ignore (publish_app platform ~dev:"devc" ~name:"c" ~imports:[ "no/where" ] ());
  let fs = findings_of platform in
  check bool_c "cycle through a closed binary" true
    (List.exists
       (function
         | Vet.Closed_cycle { cycle_members } ->
             List.sort compare cycle_members = List.sort compare [ a; b ]
         | _ -> false)
       fs);
  check bool_c "dangling import" true
    (List.exists
       (function
         | Vet.Dangling_edge { app = "devc/c"; target = "no/where"; _ } -> true
         | _ -> false)
       fs);
  (* All-open cycles are fine: forkable, auditable. *)
  let platform2 = Platform.create () in
  ignore (publish_app platform2 ~dev:"x" ~name:"p" ~imports:[ "y/q" ] ());
  ignore (publish_app platform2 ~dev:"y" ~name:"q" ~imports:[ "x/p" ] ());
  check bool_c "open cycle not flagged" false
    (has_finding (function Vet.Closed_cycle _ -> true | _ -> false) platform2)

let test_severity_ranking () =
  let platform = Platform.create ~enforcing:false () in
  let alice = signup platform "alice" in
  Policy.authorize_declassifier alice.Account.policy
    ~tag:alice.Account.secret_tag ~gate:"declass/alice/nope";
  let report = Vet.report (Static.capture platform) in
  check bool_c "worst first" true
    (match report.Vet.findings with Vet.Enforcement_off :: _ -> true | _ -> false);
  check bool_c "max severity critical" true
    (Vet.max_severity report = Some Vet.Critical);
  check int_c "exit code" 4 (Vet.exit_code report);
  let clean = Vet.report (Static.capture (Platform.create ())) in
  check int_c "enforcing empty platform is clean" 0 (Vet.exit_code clean)

(* Finding counts leave as gauges labelled by severity alone: the
   label values are a closed set, so no user, tag or gate name can
   ride along into the exposition. *)
let test_metrics_label_safe () =
  let society = W5_workload.Populate.build_showcase ~seed:11 ~users:6 () in
  let st = Static.capture society.W5_workload.Populate.platform in
  let registry = W5_obs.Metrics.create () in
  Vet.export_metrics registry (Vet.report st);
  let text = W5_obs.Exposition.prometheus registry in
  let contains = W5_http.Substring.contains text in
  check bool_c "vet gauge exported" true (contains "w5_vet_findings_total");
  check bool_c "severity label present" true (contains "severity=\"high\"");
  List.iter
    (fun user ->
      check bool_c ("no user byte leaks: " ^ user) false (contains user))
    society.W5_workload.Populate.users;
  List.iter
    (fun (t : Static.tag_info) ->
      check bool_c ("no tag byte leaks: " ^ t.Static.tag_name) false
        (contains t.Static.tag_name))
    (Static.tags st)

(* ---- the showcase platform: clean golden report ---- *)

let showcase = lazy (W5_workload.Populate.build_showcase ())

let test_showcase_clean () =
  let society = Lazy.force showcase in
  let st = Static.capture society.W5_workload.Populate.platform in
  check int_c "no findings on the shipped examples" 0
    (List.length (Vet.analyze st));
  check int_c "six users" 6 (List.length (Static.users st));
  check bool_c "group captured" true
    (List.exists
       (fun g -> g.Static.group_name = "book-club")
       (Static.groups st));
  (* Restricted tags are the precise part of the domain: the read tag
     reaches only the apps its owner granted. *)
  let granted = Static.absorbable st ~app:"core/social" in
  let ungranted = Static.absorbable st ~app:"core/calendar" in
  check bool_c "read tag reaches granted app" true
    (Absdom.mem "user0001.read" granted);
  check bool_c "read tag withheld from ungranted app" false
    (Absdom.mem "user0001.read" ungranted);
  check bool_c "non-restricted tags are dense" true
    (Absdom.mem "user0003.secret" ungranted)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs in _build/default/test; dune exec leaves the cwd
   at the workspace root. *)
let golden_path name =
  List.find Sys.file_exists [ "golden/" ^ name; "test/golden/" ^ name ]

let test_golden_report () =
  let society = Lazy.force showcase in
  let report = Vet.report (Static.capture society.W5_workload.Populate.platform) in
  let golden = read_file (golden_path "vet.json") in
  check string_c "byte-for-byte against the committed report" golden
    (Vet.to_json report)

(* ---- shared lattice laws: Label vs. the abstract domain ---- *)

(* Unique names make [Absdom.of_label] an order-isomorphism onto its
   image, so every law can be checked on both sides of alpha at once.
   (With colliding names it degrades to a join-homomorphism — still
   sound, just not injective.) *)
let law_pool =
  Array.init 16 (fun i -> Tag.fresh ~name:(Printf.sprintf "law%02d" i) Tag.Secrecy)

let gen_law_label =
  QCheck.Gen.(
    map
      (fun picks -> Label.of_list (List.map (fun i -> law_pool.(i mod 16)) picks))
      (list_size (0 -- 8) (0 -- 15)))

let arb_law_label = QCheck.make gen_law_label ~print:Label.to_string

let prop_alpha_join_homomorphism =
  QCheck.Test.make ~name:"alpha(a lub b) = alpha(a) lub alpha(b)" ~count:300
    (QCheck.pair arb_law_label arb_law_label) (fun (a, b) ->
      Absdom.equal
        (Absdom.of_label (Label.union a b))
        (Absdom.lub (Absdom.of_label a) (Absdom.of_label b)))

let prop_alpha_monotone =
  QCheck.Test.make ~name:"subset transports through alpha (both ways)"
    ~count:300
    (QCheck.pair arb_law_label arb_law_label) (fun (a, b) ->
      Label.subset a b
      = Absdom.subset (Absdom.of_label a) (Absdom.of_label b))

let prop_lub_laws =
  QCheck.Test.make ~name:"absdom lub idempotent/commutative/associative"
    ~count:300
    (QCheck.triple arb_law_label arb_law_label arb_law_label)
    (fun (la, lb, lc) ->
      let a = Absdom.of_label la
      and b = Absdom.of_label lb
      and c = Absdom.of_label lc in
      Absdom.equal (Absdom.lub a a) a
      && Absdom.equal (Absdom.lub a b) (Absdom.lub b a)
      && Absdom.equal
           (Absdom.lub a (Absdom.lub b c))
           (Absdom.lub (Absdom.lub a b) c))

let prop_bounds =
  QCheck.Test.make ~name:"absdom lub upper bound, glb lower bound" ~count:300
    (QCheck.pair arb_law_label arb_law_label) (fun (la, lb) ->
      let a = Absdom.of_label la and b = Absdom.of_label lb in
      Absdom.subset a (Absdom.lub a b)
      && Absdom.subset b (Absdom.lub a b)
      && Absdom.subset (Absdom.glb a b) a
      && Absdom.subset (Absdom.glb a b) b
      && Absdom.subset Absdom.bot a)

(* ---- differential soundness: static over-approximates dynamic ---- *)

(* One randomized platform: a small society plus configuration tweaks
   drawn from the seed (read protection with or without a reinstalled
   declassifier, a group, revoked declassifiers, the malicious app
   battery), snapshot, then a workload plus attack probes, then every
   audited flow edge checked against the snapshot. Soundness means
   zero unpredicted edges, whatever the configuration. *)
let run_differential_case seed =
  let society =
    W5_workload.Populate.build ~seed:(seed land 0xFFFF) ~users:3
      ~friends_per_user:1 ~photos_per_user:1 ~blog_posts_per_user:0 ()
  in
  let platform = society.W5_workload.Populate.platform in
  let rng = W5_workload.Rng.create ~seed:(seed lxor 0x5EED) in
  let pick_user () = W5_workload.Rng.pick rng society.W5_workload.Populate.users in
  let account_of u = Platform.account_exn platform u in
  if W5_workload.Rng.int rng 2 = 0 then begin
    let account = account_of (pick_user ()) in
    ignore (Platform.enable_read_protection platform account);
    if W5_workload.Rng.int rng 2 = 0 then
      ignore
        (Declassifier.install_and_authorize platform ~account ~name:"friends"
           Declassifier.friends_only)
  end;
  if W5_workload.Rng.int rng 2 = 0 then begin
    let founder = account_of (pick_user ()) in
    match Group.create platform ~founder ~name:"club" with
    | Error _ -> ()
    | Ok group ->
        ignore (Group.add_member platform group ~user:(pick_user ()));
        ignore (Group.post platform group ~author:founder ~id:"01" ~body:"hi")
  end;
  if W5_workload.Rng.int rng 3 = 0 then begin
    let account = account_of (pick_user ()) in
    Policy.revoke_declassifier account.Account.policy
      ~tag:account.Account.secret_tag
  end;
  let attack = W5_workload.Rng.int rng 2 = 0 in
  if attack then
    ignore
      (W5_apps.Malicious.publish_all platform
         ~dev:(Principal.make Principal.Developer "mal"));
  (* Snapshot strictly after configuration, before the workload. *)
  let st = Static.capture platform in
  let actions =
    W5_workload.Trace.generate rng ~society ~mix:W5_workload.Trace.read_heavy
      ~length:40
  in
  ignore (W5_workload.Trace.replay society actions);
  if attack then begin
    let client =
      W5_http.Client.make ~name:"attacker" (Gateway.handler platform)
    in
    ignore
      (W5_http.Client.get client "/app/mal/thief"
         ~params:[ ("target", pick_user ()) ])
  end;
  Vet.fold_audit st (W5_os.Kernel.audit (kernel platform))

let prop_soundness =
  QCheck.Test.make ~name:"no runtime edge escapes the static graph" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rt = run_differential_case seed in
      if rt.Vet.violations <> [] then
        QCheck.Test.fail_reportf "unpredicted edges (seed %d): %s" seed
          (String.concat "; "
             (List.map
                (fun v ->
                  Printf.sprintf "#%d pid=%d %s %s %s" v.Vet.v_seq v.Vet.v_pid
                    v.Vet.v_holder v.Vet.v_kind v.Vet.v_tag)
                rt.Vet.violations))
      else rt.Vet.checked > 0)

(* The showcase run the CLI ships, as a deterministic regression. *)
let test_showcase_runtime () =
  let society = W5_workload.Populate.build_showcase () in
  let platform = society.W5_workload.Populate.platform in
  let st = Static.capture platform in
  let rng = W5_workload.Rng.create ~seed:142 in
  let actions =
    W5_workload.Trace.generate rng ~society ~mix:W5_workload.Trace.read_heavy
      ~length:200
  in
  ignore (W5_workload.Trace.replay society actions);
  let rt = Vet.fold_audit st (W5_os.Kernel.audit (kernel platform)) in
  check bool_c "edges observed" true (rt.Vet.checked > 100);
  check int_c "no unpredicted edges" 0 (List.length rt.Vet.violations);
  check int_c "no post-snapshot tags in this run" 0 rt.Vet.unknown;
  let report = Vet.report ~runtime:rt st in
  check int_c "clean exit" 0 (Vet.exit_code report)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "enforcement off" `Quick test_enforcement_off;
    Alcotest.test_case "no rule" `Quick test_no_rule;
    Alcotest.test_case "broken rule: missing gate" `Quick
      test_broken_rule_missing;
    Alcotest.test_case "broken rule: powerless gate" `Quick
      test_broken_rule_powerless;
    Alcotest.test_case "foreign gate" `Quick test_foreign_gate;
    Alcotest.test_case "unguarded export" `Quick test_unguarded_export;
    Alcotest.test_case "overbroad and dead gates" `Quick
      test_overbroad_and_dead_gate;
    Alcotest.test_case "closed cycles and dangling edges" `Quick
      test_closed_cycle_and_dangling;
    Alcotest.test_case "severity ranking and exit codes" `Quick
      test_severity_ranking;
    Alcotest.test_case "finding metrics label-safe" `Quick
      test_metrics_label_safe;
    Alcotest.test_case "showcase platform is clean" `Quick test_showcase_clean;
    Alcotest.test_case "golden report byte-for-byte" `Quick test_golden_report;
    Alcotest.test_case "showcase runtime soundness" `Slow
      test_showcase_runtime;
  ]
  @ qsuite
      [
        prop_alpha_join_homomorphism; prop_alpha_monotone; prop_lub_laws;
        prop_bounds; prop_soundness;
      ]
