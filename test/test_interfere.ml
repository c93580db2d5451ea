(* Tests for the preemption-aware interference analysis: the shared
   severity/exit-code contract, the declarative syscall footprint
   table (pinned against the implementation's actual preemption
   behavior so the two cannot drift), the label-update commutativity
   law, the MHP model checked against the exhaustive interleaving
   oracle, the race/TOCTOU detector on clean and seeded-broken
   models, and the differential soundness replay over seeded
   scheduler soak runs. *)

open W5_difc
open W5_os
open W5_analysis

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let fail_err e = Alcotest.failf "unexpected error: %s" (Os_error.to_string e)
let ok = function Ok v -> v | Error e -> fail_err e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn > 0 && go 0

(* Run [f] inside a fresh synchronous process on [kernel]. *)
let run kernel ?(labels = Flow.bottom) ?(caps = Capability.Set.empty) ~name f =
  let proc =
    ok
      (Kernel.spawn kernel ~name
         ~owner:(Kernel.kernel_principal kernel)
         ~labels ~caps ~limits:Resource.unlimited
         (fun ctx -> f ctx))
  in
  Kernel.run_proc kernel proc

(* ---- satellite: the shared severity → exit-code contract ---- *)

let test_exit_contract () =
  check int_c "clean" 0 (Severity.exit_code None);
  check int_c "info" 0 (Severity.exit_code (Some Severity.Info));
  check int_c "warning" 2 (Severity.exit_code (Some Severity.Warning));
  check int_c "high" 3 (Severity.exit_code (Some Severity.High));
  check int_c "critical" 4 (Severity.exit_code (Some Severity.Critical));
  check bool_c "healthy maps clean" true (Severity.of_health_severity 0 = None);
  check bool_c "degraded maps warning" true
    (Severity.of_health_severity 2 = Some Severity.Warning);
  check bool_c "unreachable maps high" true
    (Severity.of_health_severity 3 = Some Severity.High);
  check bool_c "worst picks high" true
    (Severity.worst [ Severity.Info; Severity.High; Severity.Warning ]
    = Some Severity.High);
  check bool_c "worst of nothing" true (Severity.worst [] = None);
  check bool_c "vet re-export is the same type" true
    (Vet.exit_code (Vet.report (Static.capture (W5_platform.Platform.create ())))
     >= 0)

(* ---- the footprint table: structural pins ---- *)

let spec_op (s : Syscall.Spec.t) = s.Syscall.Spec.op

let test_spec_table_unique_and_findable () =
  let names = List.map spec_op Syscall.Spec.all in
  check int_c "every op appears once"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun s ->
      match Syscall.Spec.find (spec_op s) with
      | Some s' -> check string_c "find roundtrips" (spec_op s) (spec_op s')
      | None -> Alcotest.failf "Spec.find %s returned None" (spec_op s))
    Syscall.Spec.all;
  check bool_c "unknown op" true (Syscall.Spec.find "fs.frobnicate" = None)

(* The invariant the whole analysis leans on: in the real table every
   op revalidates its declared dependencies inside its own (atomic)
   dispatch, so the shipped kernel has no stale-check window. The
   seeded TOCTOU fixture works precisely by breaking this. *)
let test_spec_revalidates_dependencies () =
  List.iter
    (fun s ->
      check bool_c (spec_op s ^ " revalidates what it depends on") true
        (List.for_all
           (fun c -> List.mem c s.Syscall.Spec.revalidates)
           s.Syscall.Spec.depends))
    Syscall.Spec.all

let test_spec_preempt_flags () =
  let no_preempt =
    List.filter (fun s -> not s.Syscall.Spec.entry_preempt) Syscall.Spec.all
  in
  check
    Alcotest.(list string)
    "fs.exists is the only op without an entry preemption point"
    [ "fs.exists" ]
    (List.map spec_op no_preempt)

(* ---- the footprint table vs. the implementation ---- *)

(* Drive real syscalls with a counting preemption hook installed and
   require the hook to fire exactly when the spec's [entry_preempt]
   says it does. This is the anti-drift test: dispatch consumes the
   spec record, and this pins the observable consequence. *)
let test_preempt_point_matches_spec () =
  let kernel = Kernel.create () in
  let fires = ref 0 in
  Kernel.set_preempt_hook kernel (Some (fun _ -> incr fires));
  let observed = ref [] in
  let step op f =
    let before = !fires in
    f ();
    observed := (op, !fires - before) :: !observed
  in
  run kernel ~name:"probe" (fun ctx ->
      step "fs.mkdir" (fun () ->
          ok (Syscall.mkdir ctx "/d" ~labels:Flow.bottom));
      step "fs.create" (fun () ->
          ok (Syscall.create_file ctx "/d/f" ~labels:Flow.bottom ~data:"x"));
      step "fs.stat" (fun () -> ignore (ok (Syscall.stat ctx "/d/f")));
      step "fs.exists" (fun () -> ignore (Syscall.file_exists ctx "/d/f"));
      step "fs.read" (fun () -> ignore (ok (Syscall.read_file ctx "/d/f")));
      step "fs.readdir" (fun () -> ignore (ok (Syscall.readdir ctx "/d")));
      step "fs.append" (fun () ->
          ok (Syscall.append_file ctx "/d/f" ~data:"y"));
      step "fs.unlink" (fun () -> ok (Syscall.unlink ctx "/d/f")));
  check bool_c "probe exercised ops" true (List.length !observed = 8);
  List.iter
    (fun (op, fired) ->
      let spec =
        match Syscall.Spec.find op with
        | Some s -> s
        | None -> Alcotest.failf "no spec for %s" op
      in
      check int_c (op ^ " preemption fires iff spec says so")
        (if spec.Syscall.Spec.entry_preempt then 1 else 0)
        fired)
    !observed

(* Gate children run nested inside the caller's dispatch: exactly one
   preemption point (the gate.invoke entry) no matter how many
   syscalls the gate body performs — the atomicity the MHP model
   encodes as [Sched.gate_children_atomic]. *)
let test_gate_children_atomic_in_kernel () =
  let kernel = Kernel.create () in
  Kernel.register_gate kernel ~name:"probe-gate"
    ~owner:(Kernel.kernel_principal kernel)
    ~caps:Capability.Set.empty
    ~entry:(fun ctx arg ->
      ok (Syscall.mkdir ctx "/gate-made" ~labels:Flow.bottom);
      ignore (ok (Syscall.stat ctx "/gate-made"));
      ignore (Syscall.respond ctx arg));
  let fires = ref 0 in
  Kernel.set_preempt_hook kernel (Some (fun _ -> incr fires));
  run kernel ~name:"caller" (fun ctx ->
      ignore (ok (Syscall.invoke_gate ctx "probe-gate" ~arg:"x")));
  check int_c "one fire at gate.invoke entry, body shielded" 1 !fires;
  check bool_c "scheduler exports the same fact" true
    Sched.gate_children_atomic

(* ---- label-update commutativity: syntactic judgment vs. semantics ---- *)

let update_tags =
  lazy
    (Array.init 6 (fun i ->
         Tag.fresh
           ~name:(Printf.sprintf "ifr.t%d" i)
           (if i mod 2 = 0 then Tag.Secrecy else Tag.Integrity)))

let gen_label =
  QCheck.Gen.(
    map
      (fun picks ->
        let tags = Lazy.force update_tags in
        let chosen =
          List.filteri (fun i _ -> List.nth picks i) (Array.to_list tags)
        in
        let sec, integ =
          List.partition (fun t -> Tag.kind t = Tag.Secrecy) chosen
        in
        Flow.make ~secrecy:(Label.of_list sec) ~integrity:(Label.of_list integ)
          ())
      (list_repeat 6 bool))

let gen_update =
  QCheck.Gen.(
    gen_label >>= fun l ->
    oneof
      [
        return (Flow.Merge l);
        return (Flow.Assign l);
        map2
          (fun i j ->
            let tags = Lazy.force update_tags in
            Flow.Retract (Label.of_list [ tags.(i); tags.(j) ]))
          (int_bound 5) (int_bound 5);
      ])

let pp_update = function
  | Flow.Merge l -> Format.asprintf "Merge %a" Flow.pp_labels l
  | Flow.Assign l -> Format.asprintf "Assign %a" Flow.pp_labels l
  | Flow.Retract l -> "Retract " ^ Label.to_string l

let arb_update = QCheck.make gen_update ~print:pp_update

let commute_law =
  QCheck.Test.make ~name:"updates_commute implies order-independence"
    ~count:300
    (QCheck.triple arb_update arb_update (QCheck.make gen_label))
    (fun (a, b, l) ->
      (not (Flow.updates_commute a b))
      || Flow.equal_labels
           (Flow.apply_update (Flow.apply_update l a) b)
           (Flow.apply_update (Flow.apply_update l b) a))

let test_commute_algebra () =
  let l1 = Flow.make ~secrecy:(Label.singleton (Lazy.force update_tags).(0)) () in
  let l2 = Flow.make ~secrecy:(Label.singleton (Lazy.force update_tags).(2)) () in
  check bool_c "merge/merge" true
    (Flow.updates_commute (Flow.Merge l1) (Flow.Merge l2));
  check bool_c "retract/retract" true
    (Flow.updates_commute
       (Flow.Retract (Label.singleton (Lazy.force update_tags).(0)))
       (Flow.Retract (Label.singleton (Lazy.force update_tags).(2))));
  check bool_c "merge/retract disjoint" true
    (Flow.updates_commute (Flow.Merge l1)
       (Flow.Retract (Label.singleton (Lazy.force update_tags).(2))));
  check bool_c "merge/retract overlapping" false
    (Flow.updates_commute (Flow.Merge l1)
       (Flow.Retract (Label.singleton (Lazy.force update_tags).(0))));
  check bool_c "assign/assign equal" true
    (Flow.updates_commute (Flow.Assign l1) (Flow.Assign l1));
  check bool_c "assign/assign different" false
    (Flow.updates_commute (Flow.Assign l1) (Flow.Assign l2));
  check bool_c "assign/merge" false
    (Flow.updates_commute (Flow.Assign l1) (Flow.Merge l2))

(* ---- the MHP model vs. the exhaustive interleaving oracle ---- *)

let prog ?(multiplicity = 1) name steps =
  {
    Mhp.name;
    multiplicity;
    steps =
      List.map
        (fun (ctx, op) ->
          (match Syscall.Spec.find op with
          | Some _ -> ()
          | None -> Alcotest.failf "oracle model uses unknown op %s" op);
          { Mhp.ctx; op })
        steps;
  }

let d op = (Mhp.Direct, op)
let g op = (Mhp.Gate_body, op)

let oracle_models =
  lazy
    [
      ( "free 2x2",
        Mhp.make
          [ prog "a" [ d "fs.stat"; d "fs.read" ];
            prog "b" [ d "fs.relabel"; d "fs.unlink" ] ] );
      ( "shielded step",
        Mhp.make
          [ prog "a" [ d "fs.stat"; d "fs.exists"; d "fs.read" ];
            prog "b" [ d "fs.relabel" ] ] );
      ( "gate atomic",
        Mhp.make
          [ prog "a" [ d "fs.stat"; g "label.declassify"; g "proc.respond" ];
            prog "b" [ d "fs.relabel" ] ] );
      ( "twins",
        Mhp.make [ prog ~multiplicity:2 "p" [ d "fs.stat"; d "fs.exists" ] ] );
      ( "three-way",
        Mhp.make
          [ prog "a" [ d "fs.stat"; d "fs.read" ];
            prog "b" [ d "fs.relabel" ];
            prog "c" [ d "ipc.send"; d "ipc.recv" ] ] );
    ]

let instance_key (i : Mhp.instance) = (i.Mhp.i_prog.Mhp.name, i.Mhp.i_id)

(* Is step [i_op] of instance [ia] ever immediately adjacent to step
   [j_op] of instance [ib] (either order) in some admitted schedule?
   Oracle-model programs use distinct ops per step, so (instance, op)
   identifies a unique step. *)
let adjacent_in schedules ia i_op ib j_op =
  List.exists
    (fun sched ->
      let rec scan = function
        | (x, (sx : Mhp.step)) :: ((y, (sy : Mhp.step)) :: _ as rest) ->
            (instance_key x = instance_key ia
             && sx.Mhp.op = i_op
             && instance_key y = instance_key ib
             && sy.Mhp.op = j_op)
            || (instance_key x = instance_key ib
                && sx.Mhp.op = j_op
                && instance_key y = instance_key ia
                && sy.Mhp.op = i_op)
            || scan rest
        | _ -> false
      in
      scan sched)
    schedules

let test_mhp_matches_oracle () =
  List.iter
    (fun (name, model) ->
      let schedules = Mhp.interleavings model in
      check bool_c (name ^ ": oracle admits at least one schedule") true
        (schedules <> []);
      let insts = Array.of_list (Mhp.instances model) in
      Array.iter
        (fun ia ->
          Array.iter
            (fun ib ->
              if instance_key ia <> instance_key ib then begin
                let a_steps = Array.of_list ia.Mhp.i_prog.Mhp.steps in
                let b_steps = Array.of_list ib.Mhp.i_prog.Mhp.steps in
                Array.iteri
                  (fun i (si : Mhp.step) ->
                    Array.iteri
                      (fun j (sj : Mhp.step) ->
                        let predicted =
                          Interfere.mhp_steps model a_steps i b_steps j
                        in
                        let observed =
                          adjacent_in schedules ia si.Mhp.op ib sj.Mhp.op
                        in
                        check bool_c
                          (Printf.sprintf "%s: %s[%d]~%s[%d]" name
                             ia.Mhp.i_prog.Mhp.name i ib.Mhp.i_prog.Mhp.name
                             j)
                          observed predicted)
                      b_steps)
                  a_steps
              end)
            insts)
        insts)
    (Lazy.force oracle_models)

let test_oracle_schedule_counts () =
  let m name = List.assoc name (Lazy.force oracle_models) in
  (* two fully-preemptible 2-step programs: choose(4,2) interleavings *)
  check int_c "free 2x2" 6 (List.length (Mhp.interleavings (m "free 2x2")));
  (* fs.exists has no entry preemption point, so stat|exists is welded:
     b fits before a, between exists and read, or after — 3 slots *)
  check int_c "shielded step" 3
    (List.length (Mhp.interleavings (m "shielded step")));
  (* atomic gate body welds all of a *)
  check int_c "gate atomic" 2
    (List.length (Mhp.interleavings (m "gate atomic")))

(* ---- the detector ---- *)

let showcase_model seed =
  let society = W5_workload.Populate.build_showcase ~seed ~users:6 () in
  let platform = society.W5_workload.Populate.platform in
  (society, Interfere.model_of_static (Static.capture platform))

let is_stale = function Interfere.Stale_flow_check _ -> true | _ -> false

let test_clean_showcase () =
  let _, model = showcase_model 42 in
  let report = Interfere.analyze model in
  (match Interfere.worst report with
  | None | Some Severity.Info -> ()
  | Some s ->
      Alcotest.failf "clean showcase produced a %s finding" (Severity.name s));
  check int_c "exit 0" 0 (Interfere.exit_code report);
  check bool_c "the surface is not empty" true (report.Interfere.pairs_examined > 0)

let test_seeded_toctou () =
  let _, model = showcase_model 42 in
  let report = Interfere.analyze (Interfere.seed_toctou model) in
  check bool_c "stale flow check reported" true
    (List.exists is_stale report.Interfere.findings);
  check bool_c "ranked first (worst first)" true
    (match report.Interfere.findings with
    | f :: _ -> Interfere.severity_of f = Severity.High
    | [] -> false);
  check int_c "exit 3" 3 (Interfere.exit_code report)

(* ---- differential soundness: replay seeded scheduler runs ---- *)

let replay_model = lazy (snd (showcase_model 7))

let replay_config seed =
  {
    W5_workload.Soak.default_config with
    W5_workload.Soak.seed;
    users = 6 + (seed mod 5);
    requests = 30 + (seed mod 31);
    waves = 1 + (seed mod 2);
    quantum = 2 + (seed mod 5);
  }

let run_replay seed =
  let society, _ = W5_workload.Soak.run (replay_config seed) in
  let log =
    Kernel.audit
      (W5_platform.Platform.kernel society.W5_workload.Populate.platform)
  in
  Interfere.fold_audit (Lazy.force replay_model) log

let differential_soundness =
  QCheck.Test.make
    ~name:"observed scheduler conflicts stay on the predicted surface"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let replay = run_replay seed in
      if replay.Interfere.unpredicted <> [] then
        QCheck.Test.fail_reportf "unpredicted conflicts (seed %d): %s" seed
          (String.concat "; " replay.Interfere.unpredicted)
      else if replay.Interfere.atomic_violations <> [] then
        QCheck.Test.fail_reportf "atomicity violations (seed %d): %s" seed
          (String.concat "; " replay.Interfere.atomic_violations)
      else true)

let test_replay_observes_interleavings () =
  (* the soundness law must not hold vacuously: a real soak shows
     actual cross-thread interleavings and label conflicts *)
  let replay = run_replay 3 in
  check bool_c "events seen" true (replay.Interfere.events_seen > 0);
  check bool_c "threads seen" true (replay.Interfere.threads_seen > 1);
  check bool_c "interleavings observed" true
    (replay.Interfere.interleavings_observed > 0);
  check bool_c "conflicts observed" true
    (replay.Interfere.conflicts_observed > 0);
  check int_c "clean replay exits 0" 0 (Interfere.replay_exit_code replay)

(* ---- satellite: label-safe finding-count metrics ---- *)

let test_metrics_label_safe () =
  let society, model = showcase_model 11 in
  let platform = society.W5_workload.Populate.platform in
  let st = Static.capture platform in
  let registry = W5_obs.Metrics.create () in
  Vet.export_metrics registry (Vet.report st);
  Interfere.export_metrics registry (Interfere.analyze model);
  let text = W5_obs.Exposition.prometheus registry in
  check bool_c "vet gauge exported" true
    (contains text "w5_vet_findings_total");
  check bool_c "interference gauge exported" true
    (contains text "w5_interfere_findings_total");
  check bool_c "severity label present" true
    (contains text "severity=\"high\"");
  (* canary sweep: no user name, tag name, or gate name may appear in
     the exposition — the label values are a closed set *)
  List.iter
    (fun user ->
      check bool_c ("no user byte leaks: " ^ user) false (contains text user))
    society.W5_workload.Populate.users;
  List.iter
    (fun tag ->
      check bool_c ("no tag byte leaks: " ^ tag) false (contains text tag))
    (List.map
       (fun (t : Static.tag_info) -> t.Static.tag_name)
       (Static.tags st))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "severity exit contract" `Quick test_exit_contract;
    Alcotest.test_case "spec table unique+findable" `Quick
      test_spec_table_unique_and_findable;
    Alcotest.test_case "specs revalidate dependencies" `Quick
      test_spec_revalidates_dependencies;
    Alcotest.test_case "spec preempt flags" `Quick test_spec_preempt_flags;
    Alcotest.test_case "preempt point matches spec" `Quick
      test_preempt_point_matches_spec;
    Alcotest.test_case "gate children atomic in kernel" `Quick
      test_gate_children_atomic_in_kernel;
    Alcotest.test_case "commute algebra" `Quick test_commute_algebra;
    Alcotest.test_case "mhp matches exhaustive oracle" `Quick
      test_mhp_matches_oracle;
    Alcotest.test_case "oracle schedule counts" `Quick
      test_oracle_schedule_counts;
    Alcotest.test_case "clean showcase" `Quick test_clean_showcase;
    Alcotest.test_case "seeded toctou" `Quick test_seeded_toctou;
    Alcotest.test_case "replay observes real interleavings" `Quick
      test_replay_observes_interleavings;
    Alcotest.test_case "finding metrics label-safe" `Quick
      test_metrics_label_safe;
  ]
  @ qsuite [ commute_law; differential_soundness ]
