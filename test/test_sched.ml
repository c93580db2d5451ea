(* The deterministic interleaved scheduler, pinned down.

   Units: preemption at quantum expiry, quota kills mid-slice (with
   the victim's audit trail intact), gate atomicity under preemption,
   and the admission bookkeeping. Properties (300+ cases each way): the same
   seed over a randomized process mix yields byte-identical audit logs
   and final filesystem state across two runs, and seeded interleaved
   execution converges to exactly the sequential final state when the
   processes' writes are disjoint. *)

open W5_difc
open W5_os

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* ---- kernel-level arenas ---- *)

(* A process is a list of small steps over the syscall API. Writes go
   under the process's own prefix, so any two schedules of the same
   mix agree on the final store; reads and consumes create the tick
   pressure that forces preemption. *)
type step =
  | Write of int
  | Read_shared of int
  | Read_own of int
  | Burn of int

let step_name = function
  | Write n -> Printf.sprintf "w%d" n
  | Read_shared n -> Printf.sprintf "rs%d" n
  | Read_own n -> Printf.sprintf "ro%d" n
  | Burn n -> Printf.sprintf "b%d" n

let shared_path n = Printf.sprintf "/shared/s%d" (n mod 4)
let own_path i n = Printf.sprintf "/mix/p%d-%d" i (n mod 4)

let body_of i steps ctx =
  List.iter
    (fun step ->
      match step with
      | Write n ->
          ignore
            (Syscall.create_file ctx (own_path i n) ~labels:Flow.bottom
               ~data:(Printf.sprintf "p%d writes %d" i n));
          ignore
            (Syscall.write_file ctx (own_path i n)
               ~data:(Printf.sprintf "p%d wrote %d" i n))
      | Read_shared n -> ignore (Syscall.read_file ctx (shared_path n))
      | Read_own n -> ignore (Syscall.read_file ctx (own_path i n))
      | Burn n -> ignore (Syscall.consume ctx ~cpu:(1 + (n mod 3))))
    steps

let fresh_kernel () =
  let kernel = Kernel.create () in
  (* the shared files every mix reads *)
  (match
     Kernel.spawn kernel ~name:"setup"
       ~owner:(Principal.make Principal.Provider "setup")
       ~labels:Flow.bottom ~caps:Capability.Set.empty
       ~limits:Resource.unlimited
       (fun ctx ->
         ignore (Syscall.mkdir ctx "/shared" ~labels:Flow.bottom);
         ignore (Syscall.mkdir ctx "/mix" ~labels:Flow.bottom);
         for n = 0 to 3 do
           ignore
             (Syscall.create_file ctx (shared_path n) ~labels:Flow.bottom
                ~data:(Printf.sprintf "shared %d" n))
         done)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup spawn: %s" (Os_error.to_string e));
  Kernel.run kernel;
  kernel

let spawn_mix kernel mix =
  List.mapi
    (fun i steps ->
      match
        Kernel.spawn kernel
          ~name:(Printf.sprintf "p%d" i)
          ~owner:(Principal.make Principal.Developer (Printf.sprintf "d%d" i))
          ~labels:Flow.bottom ~caps:Capability.Set.empty
          ~limits:Resource.default_app_limits (body_of i steps)
      with
      | Ok proc -> proc
      | Error e -> Alcotest.failf "spawn p%d: %s" i (Os_error.to_string e))
    mix

let audit_text kernel =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" Audit.pp_entry e))
    (Audit.entries (Kernel.audit kernel));
  Buffer.contents buf

let fs_image kernel =
  let fs = Kernel.fs kernel in
  let buf = Buffer.create 4096 in
  let rec walk path =
    match Fs.stat fs path with
    | Error _ -> ()
    | Ok st -> (
        match st.Fs.kind with
        | Fs.Directory -> (
            match Fs.readdir fs path with
            | Error _ -> ()
            | Ok (names, _) ->
                List.iter
                  (fun name ->
                    walk (if path = "/" then "/" ^ name else path ^ "/" ^ name))
                  names)
        | Fs.Regular -> (
            match Fs.read fs path with
            | Error _ -> ()
            | Ok (data, labels) ->
                Buffer.add_string buf
                  (Format.asprintf "%s [%a] %s\n" path Flow.pp_labels labels
                     data)))
  in
  walk "/";
  Buffer.contents buf

let run_scheduled ~seed ~quantum mix =
  let kernel = fresh_kernel () in
  ignore (spawn_mix kernel mix);
  let stats = Sched.run ~quantum ~policy:(Sched.Seeded seed) kernel in
  (kernel, stats)

(* ---- units ---- *)

let test_preemption_interleaves () =
  let mix = [ List.init 20 (fun n -> Burn n); List.init 20 (fun n -> Burn n) ] in
  let kernel = fresh_kernel () in
  let procs = spawn_mix kernel mix in
  let stats = Sched.run ~quantum:1 ~policy:Sched.Fifo kernel in
  check int_c "both completed" 2 stats.Sched.completed;
  check bool_c "preempted repeatedly" true (stats.Sched.preemptions > 4);
  check bool_c "more slices than processes" true (stats.Sched.slices > 4);
  check int_c "nobody killed" 0 stats.Sched.killed;
  (* every process is runnable-to-exit exactly once *)
  check int_c "two spawned" 2 (List.length procs);
  List.iter
    (fun p ->
      check bool_c "exited" true (p.Proc.state = Proc.Exited);
      check bool_c "finish tick stamped" true (p.Proc.finished_tick <> None))
    procs

let test_quota_kill_mid_slice () =
  let kernel = fresh_kernel () in
  (* a hog: burns CPU forever, with a tight limit; a neighbour that
     must be unaffected *)
  let hog =
    match
      Kernel.spawn kernel ~name:"hog"
        ~owner:(Principal.make Principal.Developer "hog")
        ~labels:Flow.bottom ~caps:Capability.Set.empty
        ~limits:(Resource.make_limits ~cpu:25 ())
        (fun ctx ->
          ignore (Syscall.create_file ctx "/mix/hog-before" ~labels:Flow.bottom
                    ~data:"written before the kill");
          let rec burn () =
            ignore (Syscall.consume ctx ~cpu:1);
            burn ()
          in
          burn ())
    with
    | Ok proc -> proc
    | Error e -> Alcotest.failf "spawn hog: %s" (Os_error.to_string e)
  in
  ignore (spawn_mix kernel [ List.init 10 (fun n -> Write n) ]);
  let stats = Sched.run ~quantum:3 ~policy:(Sched.Seeded 7) kernel in
  check int_c "hog killed" 1 stats.Sched.killed;
  check int_c "neighbour completed" 1 stats.Sched.completed;
  (match hog.Proc.state with
  | Proc.Killed reason ->
      check bool_c "killed by quota" true
        (String.length reason >= 5 && String.sub reason 0 5 = "quota")
  | _ -> Alcotest.fail "hog not killed");
  check bool_c "finish tick stamped on kill" true
    (hog.Proc.finished_tick <> None);
  check bool_c "hog left the table" true
    (Kernel.find_proc kernel hog.Proc.pid = None);
  (* the killed process's audit trail is whole: its pre-kill write is
     in the log, and so are the Quota_hit and Killed records *)
  let events_for pid =
    List.filter_map
      (fun e ->
        if e.Audit.pid = pid then Some (Audit.event_kind e.Audit.event)
        else None)
      (Audit.entries (Kernel.audit kernel))
  in
  let hog_events = events_for hog.Proc.pid in
  check bool_c "pre-kill events logged" true
    (List.mem "object_labeled" hog_events);
  check bool_c "quota hit recorded" true (List.mem "quota_hit" hog_events);
  check bool_c "kill recorded" true (List.mem "killed" hog_events);
  (* the file it wrote before dying really exists *)
  check bool_c "pre-kill write durable" true
    (Fs.exists (Kernel.fs kernel) "/mix/hog-before")

(* A gate child's syscalls run nested inside the caller's dispatch, so
   a quantum-sized caller must never be preempted mid-gate: the
   child's audit events are contiguous per invocation. *)
let test_gate_atomic_under_preemption () =
  let kernel = fresh_kernel () in
  Kernel.register_gate kernel ~name:"echo"
    ~owner:(Principal.make Principal.Provider "gatekeeper")
    ~caps:Capability.Set.empty
    ~entry:(fun ctx arg ->
      ignore
        (Syscall.create_file ctx
           (Printf.sprintf "/mix/gate-%d" (Syscall.pid ctx))
           ~labels:Flow.bottom ~data:arg);
      ignore (Syscall.respond ctx arg));
  let caller i ctx =
    for n = 0 to 5 do
      ignore (Syscall.consume ctx ~cpu:1);
      ignore
        (Syscall.invoke_gate ctx "echo" ~arg:(Printf.sprintf "c%d-%d" i n))
    done
  in
  List.iter
    (fun i ->
      match
        Kernel.spawn kernel
          ~name:(Printf.sprintf "caller%d" i)
          ~owner:(Principal.make Principal.Developer "d")
          ~labels:Flow.bottom ~caps:Capability.Set.empty
          ~limits:Resource.default_app_limits (caller i)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "spawn: %s" (Os_error.to_string e))
    [ 0; 1; 2 ];
  let stats = Sched.run ~quantum:1 ~policy:(Sched.Seeded 99) kernel in
  check int_c "all callers completed" 3 stats.Sched.completed;
  check bool_c "preemption happened" true (stats.Sched.preemptions > 0);
  (* contiguity: once a gate child's first event appears, all of that
     child's events appear before any other pid's *)
  let entries = Audit.entries (Kernel.audit kernel) in
  let gate_pids =
    List.filter_map
      (fun e ->
        match e.Audit.event with
        | Audit.Gate_invoked { child; _ } -> Some child
        | _ -> None)
      entries
  in
  check bool_c "gates ran" true (List.length gate_pids >= 18);
  List.iter
    (fun pid ->
      let seqs =
        List.filter_map
          (fun e -> if e.Audit.pid = pid then Some e.Audit.seq else None)
          entries
      in
      match seqs with
      | [] -> ()
      | first :: _ ->
          let last = List.nth seqs (List.length seqs - 1) in
          check int_c
            (Printf.sprintf "gate child %d events contiguous" pid)
            (List.length seqs)
            (last - first + 1))
    gate_pids

(* A gate call sets the preemption hook aside only while its child
   runs: the child's syscalls never reach the hook, and the caller's
   next syscall is a preemption point again. *)
let test_gate_call_restores_preempt_hook () =
  let kernel = Kernel.create () in
  Kernel.register_gate kernel ~name:"probe"
    ~owner:(Kernel.kernel_principal kernel)
    ~caps:Capability.Set.empty
    ~entry:(fun ctx arg -> ignore (Syscall.respond ctx arg));
  (match
     Kernel.spawn kernel ~name:"caller"
       ~owner:(Principal.make Principal.Developer "dev")
       ~labels:Flow.bottom ~caps:Capability.Set.empty
       ~limits:Resource.default_app_limits
       (fun ctx ->
         ignore (Syscall.invoke_gate ctx "probe" ~arg:"x");
         ignore (Syscall.readdir ctx "/"))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn caller: %s" (Os_error.to_string e));
  let fired = ref [] in
  Kernel.set_preempt_hook kernel
    (Some (fun proc -> fired := proc.Proc.proc_name :: !fired));
  Kernel.run kernel;
  check
    (Alcotest.list Alcotest.string)
    "gate.invoke and fs.readdir entries, none in the child"
    [ "caller"; "caller" ] (List.rev !fired)

let test_admission_skips_executed_bodies () =
  (* a body spawned and run synchronously before the drain (as a
     Gateway.conclude without a drain runs it) must not run twice *)
  let kernel = fresh_kernel () in
  let hits = ref 0 in
  (match
     Kernel.spawn kernel ~name:"eager"
       ~owner:(Principal.make Principal.Provider "p")
       ~labels:Flow.bottom ~caps:Capability.Set.empty
       ~limits:Resource.unlimited
       (fun _ -> incr hits)
   with
  | Ok proc ->
      Kernel.run_proc kernel proc;
      check int_c "ran synchronously" 1 !hits
  | Error e -> Alcotest.failf "spawn: %s" (Os_error.to_string e));
  let stats = Sched.run kernel in
  check int_c "not admitted again" 0 stats.Sched.completed;
  check int_c "not run again" 1 !hits

(* Admitted processes leave the run queue, and each leaves the process
   table as it ends, killed or not: a drain leaves nothing behind. *)
let test_drain_empties_table () =
  let kernel = fresh_kernel () in
  let burns = List.init 20 (fun n -> Burn n) in
  let procs = spawn_mix kernel [ [ Write 0 ]; burns ] in
  let hog =
    match
      Kernel.spawn kernel ~name:"hog"
        ~owner:(Principal.make Principal.Developer "hog")
        ~labels:Flow.bottom ~caps:Capability.Set.empty
        ~limits:(Resource.make_limits ~cpu:10 ())
        (body_of 2 burns)
    with
    | Ok proc -> proc
    | Error e -> Alcotest.failf "spawn hog: %s" (Os_error.to_string e)
  in
  check (Alcotest.list int_c) "table = the spawned"
    (List.map (fun p -> p.Proc.pid) (procs @ [ hog ]))
    (List.map (fun p -> p.Proc.pid) (Kernel.processes kernel));
  check int_c "all queued" 3 (Kernel.pending_count kernel);
  let stats = Sched.run ~quantum:1 ~policy:(Sched.Seeded 3) kernel in
  check int_c "two completed" 2 stats.Sched.completed;
  check int_c "hog killed" 1 stats.Sched.killed;
  check int_c "run queue empty" 0 (Kernel.pending_count kernel);
  check (Alcotest.list int_c) "table empty" []
    (List.map (fun p -> p.Proc.pid) (Kernel.processes kernel))

(* ---- properties ---- *)

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Write n) (0 -- 3));
        (3, map (fun n -> Read_shared n) (0 -- 3));
        (2, map (fun n -> Read_own n) (0 -- 3));
        (3, map (fun n -> Burn n) (0 -- 2));
      ])

let gen_mix =
  QCheck.Gen.(list_size (2 -- 6) (list_size (1 -- 12) gen_step))

let arb_case =
  QCheck.make
    ~print:(fun (seed, quantum, mix) ->
      Printf.sprintf "seed=%d quantum=%d mix=[%s]" seed quantum
        (String.concat " | "
           (List.map
              (fun steps -> String.concat ";" (List.map step_name steps))
              mix)))
    QCheck.Gen.(
      map
        (fun ((seed, quantum), mix) -> (seed, quantum, mix))
        (pair (pair (0 -- 1000000) (1 -- 6)) gen_mix))

let prop_same_seed_same_bytes =
  QCheck.Test.make
    ~name:"same seed => byte-identical audit log and final store (300)"
    ~count:300 arb_case
    (fun (seed, quantum, mix) ->
      let k1, s1 = run_scheduled ~seed ~quantum mix in
      let k2, s2 = run_scheduled ~seed ~quantum mix in
      audit_text k1 = audit_text k2
      && fs_image k1 = fs_image k2
      && s1 = s2)

let prop_interleaved_converges_to_sequential =
  QCheck.Test.make
    ~name:"interleaved final store = sequential final store" ~count:150
    arb_case
    (fun (seed, quantum, mix) ->
      let k1, _ = run_scheduled ~seed ~quantum mix in
      let k2 = fresh_kernel () in
      ignore (spawn_mix k2 mix);
      Kernel.run k2;
      fs_image k1 = fs_image k2)

let prop_different_seeds_still_converge =
  QCheck.Test.make
    ~name:"any two seeds agree on the final store" ~count:100 arb_case
    (fun (seed, quantum, mix) ->
      let k1, _ = run_scheduled ~seed ~quantum mix in
      let k2, _ = run_scheduled ~seed:(seed + 1) ~quantum mix in
      fs_image k1 = fs_image k2)

let suite =
  [
    Alcotest.test_case "quantum preemption interleaves processes" `Quick
      test_preemption_interleaves;
    Alcotest.test_case "quota kill mid-slice is audited" `Quick
      test_quota_kill_mid_slice;
    Alcotest.test_case "gate invocations stay atomic under preemption" `Quick
      test_gate_atomic_under_preemption;
    Alcotest.test_case "gate call restores the preempt hook" `Quick
      test_gate_call_restores_preempt_hook;
    Alcotest.test_case "admission skips already-executed bodies" `Quick
      test_admission_skips_executed_bodies;
    Alcotest.test_case "a drain empties the process table" `Quick
      test_drain_empties_table;
    QCheck_alcotest.to_alcotest prop_same_seed_same_bytes;
    QCheck_alcotest.to_alcotest prop_interleaved_converges_to_sequential;
    QCheck_alcotest.to_alcotest prop_different_seeds_still_converge;
  ]
