open W5_difc
open W5_obs

type gate = {
  g_owner : Principal.t;
  g_caps : Capability.Set.t;
  g_entry : ctx -> string -> unit;
}

and meters = {
  syscalls : Metrics.metric;
  flow_checks : Metrics.metric;
  flow_check_src_size : Metrics.metric;
  quota_units : Metrics.metric;
  quota_kills : Metrics.metric;
  spawns : Metrics.metric;
  gate_invocations : Metrics.metric;
  audit_events : Metrics.metric;
  syscall_ticks : Metrics.metric;
  trace_dropped : Metrics.metric;
}

and t = {
  k_id : int;
  k_fs : Fs.t;
  k_audit : Audit.log;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  pending : (Proc.t * body) Queue.t;
  bodies : (int, body) Hashtbl.t;
  gates : (string, gate) Hashtbl.t;
  mutable k_tick : int;
  mutable k_enforcing : bool;
  k_principal : Principal.t;
  k_metrics : Metrics.t;
  k_tracer : Tracer.t;
  k_meters : meters;
  (* Audit batching: while [k_audit_depth > 0] (inside a syscall
     dispatch), events queue here and are appended in one
     [Audit.record_batch] when the outermost dispatch ends — one
     capacity check per syscall instead of one per event. *)
  mutable k_audit_depth : int;
  k_audit_buf : (int * int * Audit.event) Queue.t;
  (* Installed by the scheduler (Sched) for the duration of a drain:
     called by the syscall layer at every dispatch entry so a running
     process can be preempted at kernel-crossing boundaries. *)
  mutable k_preempt : (Proc.t -> unit) option;
}

and ctx = {
  kernel : t;
  proc : Proc.t;
}

and body = ctx -> unit

exception Quota_kill of Resource.kind

(* ~128k entries at ~100B apiece is on the order of 10 MB: enough
   history for days of denial queries on a busy provider, small enough
   that a soak run's memory stays flat. Sequence numbers keep counting
   across eviction, so truncation is observable (Audit.create). *)
let default_audit_capacity = 65536

let make_meters m =
  {
    syscalls =
      Metrics.counter m "w5_syscalls_total"
        ~help:"Kernel crossings by operation";
    flow_checks =
      Metrics.counter m "w5_flow_checks_total"
        ~help:"DIFC flow judgments by operation and decision";
    flow_check_src_size =
      Metrics.histogram m "w5_flow_check_src_secrecy_size"
        ~help:"Source secrecy label cardinality at flow checks"
        ~buckets:[ 0; 1; 2; 4; 8; 16; 32; 64 ];
    quota_units =
      Metrics.counter m "w5_quota_units_total"
        ~help:"Resource units charged by kind";
    quota_kills =
      Metrics.counter m "w5_quota_kills_total"
        ~help:"Processes killed for exceeding a quota, by kind";
    spawns =
      Metrics.counter m "w5_proc_spawns_total" ~help:"Processes created";
    gate_invocations =
      Metrics.counter m "w5_gate_invocations_total"
        ~help:"Privilege-transfer gate calls by gate";
    audit_events =
      Metrics.counter m "w5_audit_events_total"
        ~help:"Audit log records by event kind";
    syscall_ticks =
      Perf.latency m "w5_syscall_ticks"
        ~help:"Logical-clock ticks consumed per syscall dispatch";
    trace_dropped =
      Metrics.counter m "w5_trace_dropped_total"
        ~help:"Completed traces evicted from the tracer ring";
  }

(* Kernels are per-provider singletons; a monotone id lets global
   side tables (e.g. the store's index registries) key per kernel
   without keeping the kernel itself alive in a map key. *)
let next_kernel_id = ref 0

let create ?(enforcing = true) ?(audit_capacity = default_audit_capacity) () =
  let k_metrics = Metrics.create () in
  incr next_kernel_id;
  let k =
    {
      k_id = !next_kernel_id;
      k_fs = Fs.create ();
      k_audit = Audit.create ~capacity:audit_capacity ();
      procs = Hashtbl.create 64;
      next_pid = 0;
      pending = Queue.create ();
      bodies = Hashtbl.create 64;
      gates = Hashtbl.create 16;
      k_tick = 0;
      k_enforcing = enforcing;
      k_principal = Principal.make Principal.Provider "kernel";
      k_metrics;
      k_tracer = Tracer.create ();
      k_meters = make_meters k_metrics;
      k_audit_depth = 0;
      k_audit_buf = Queue.create ();
      k_preempt = None;
    }
  in
  (* ring evictions surface as a counter, not only in the traces
     exposition footer *)
  Tracer.set_on_drop k.k_tracer (fun n ->
      Metrics.inc k.k_meters.trace_dropped ~by:n);
  k

let id k = k.k_id
let enforcing k = k.k_enforcing
let set_enforcing k b = k.k_enforcing <- b
let fs k = k.k_fs
let audit k = k.k_audit
let tick k = k.k_tick
let advance_clock k = k.k_tick <- k.k_tick + 1
let kernel_principal k = k.k_principal
let metrics k = k.k_metrics
let tracer k = k.k_tracer
let meters k = k.k_meters

let record k ~pid event =
  Metrics.inc k.k_meters.audit_events
    ~labels:[ ("event", Audit.event_kind event) ];
  if k.k_audit_depth > 0 then Queue.add (k.k_tick, pid, event) k.k_audit_buf
  else Audit.record k.k_audit ~tick:k.k_tick ~pid event

let flush_audit k =
  if not (Queue.is_empty k.k_audit_buf) then begin
    let items =
      List.rev (Queue.fold (fun acc e -> e :: acc) [] k.k_audit_buf)
    in
    Queue.clear k.k_audit_buf;
    Audit.record_batch k.k_audit items
  end

let with_audit_batch k f =
  k.k_audit_depth <- k.k_audit_depth + 1;
  Fun.protect
    ~finally:(fun () ->
      k.k_audit_depth <- k.k_audit_depth - 1;
      if k.k_audit_depth = 0 then flush_audit k)
    f

let set_preempt_hook k hook = k.k_preempt <- hook

(* Preemption points sit at syscall-dispatch entry, and only at audit
   depth 0: a nested dispatch (a gate child's syscalls inside the
   caller's open audit batch) must never suspend with the kernel-wide
   batch buffer half-filled, or another process's events would land in
   it. Depth-0 entries are exactly the boundaries where the kernel
   holds no per-call state. *)
let preempt_point k proc =
  match k.k_preempt with
  | Some hook when k.k_audit_depth = 0 -> hook proc
  | Some _ | None -> ()

let fresh_pid k =
  k.next_pid <- k.next_pid + 1;
  k.next_pid

let spawn k ?parent ~name ~owner ~labels ~caps ~limits body =
  let checked =
    match parent with
    | None -> Ok ()
    | Some p when not k.k_enforcing ->
        Result.map (fun () -> ())
          (Result.map_error
             (fun kind -> Os_error.Quota_exceeded kind)
             (Resource.charge p.Proc.usage p.Proc.limits Resource.Processes 1))
    | Some p -> (
        match Resource.charge p.Proc.usage p.Proc.limits Resource.Processes 1 with
        | Error kind -> Error (Os_error.Quota_exceeded kind)
        | Ok () ->
            if not (Capability.Set.subset caps p.Proc.caps) then
              Error
                (Os_error.Permission
                   "spawn: child capabilities exceed parent's")
            else
              Result.map_error
                (fun d -> Os_error.Denied d)
                (Flow.check_labels_change ~caps:p.Proc.caps
                   ~old_labels:p.Proc.labels ~new_labels:labels))
  in
  match checked with
  | Error _ as e -> e
  | Ok () ->
      let pid = fresh_pid k in
      let proc = Proc.make ~pid ~name ~owner ~labels ~caps ~limits in
      Hashtbl.replace k.procs pid proc;
      Hashtbl.replace k.bodies pid body;
      Queue.add (proc, body) k.pending;
      Metrics.inc k.k_meters.spawns;
      let actor = match parent with Some p -> p.Proc.pid | None -> 0 in
      record k ~pid:actor (Audit.Spawned { child = pid; name; labels });
      Ok proc

(* Completion and failure bookkeeping, shared between the synchronous
   [run_proc] below and the interleaved scheduler (Sched): both must
   stamp the finish tick and convert quota kills / stray exceptions
   into audited [Killed] states. *)
let finish_proc k proc =
  proc.Proc.state <- Proc.Exited;
  proc.Proc.finished_tick <- Some k.k_tick

let fail_proc k proc exn =
  (match exn with
  | Quota_kill kind ->
      Proc.kill proc ~reason:("quota: " ^ Resource.kind_to_string kind);
      Metrics.inc k.k_meters.quota_kills
        ~labels:[ ("kind", Resource.kind_to_string kind) ];
      record k ~pid:proc.Proc.pid (Audit.Quota_hit kind);
      record k ~pid:proc.Proc.pid
        (Audit.Killed { reason = "quota: " ^ Resource.kind_to_string kind })
  | exn ->
      let reason = "uncaught: " ^ Printexc.to_string exn in
      Proc.kill proc ~reason;
      record k ~pid:proc.Proc.pid (Audit.Killed { reason }));
  proc.Proc.finished_tick <- Some k.k_tick

let run_proc k proc =
  match proc.Proc.state with
  | Proc.Running | Proc.Exited | Proc.Killed _ -> ()
  | Proc.Runnable -> (
      match Hashtbl.find_opt k.bodies proc.Proc.pid with
      | None -> finish_proc k proc
      | Some body -> (
          proc.Proc.state <- Proc.Running;
          advance_clock k;
          try
            body { kernel = k; proc };
            finish_proc k proc
          with exn -> fail_proc k proc exn))

let run k =
  let rec drain () =
    match Queue.take_opt k.pending with
    | None -> ()
    | Some (proc, _) ->
        run_proc k proc;
        drain ()
  in
  drain ()

(* Admission interface for the interleaved scheduler: pull spawned
   processes off the kernel run queue without executing them. *)
let take_pending k = Queue.take_opt k.pending

let pending_count k = Queue.length k.pending

let find_proc k pid = Hashtbl.find_opt k.procs pid

let processes k =
  Hashtbl.fold (fun _ p acc -> p :: acc) k.procs []
  |> List.sort (fun a b -> Int.compare a.Proc.pid b.Proc.pid)

let reap k =
  let dead =
    Hashtbl.fold
      (fun pid p acc -> if Proc.is_alive p then acc else pid :: acc)
      k.procs []
  in
  List.iter
    (fun pid ->
      Hashtbl.remove k.procs pid;
      Hashtbl.remove k.bodies pid)
    dead;
  (* drop dead processes from the run queue too, or their records
     (and closures) stay reachable forever *)
  let live = Queue.create () in
  Queue.iter
    (fun ((proc, _) as entry) ->
      if Proc.is_alive proc then Queue.add entry live)
    k.pending;
  Queue.clear k.pending;
  Queue.transfer live k.pending;
  List.length dead

let process_count k = Hashtbl.length k.procs

let live_process_count k =
  Hashtbl.fold (fun _ p acc -> if Proc.is_alive p then acc + 1 else acc) k.procs 0

let register_gate k ~name ~owner ~caps ~entry =
  Hashtbl.replace k.gates name { g_owner = owner; g_caps = caps; g_entry = entry }

let gate_exists k name = Hashtbl.mem k.gates name

let gate_caps k name =
  Option.map (fun g -> g.g_caps) (Hashtbl.find_opt k.gates name)

let gate_owner k name =
  Option.map (fun g -> g.g_owner) (Hashtbl.find_opt k.gates name)

let gate_names k =
  Hashtbl.fold (fun name _ acc -> name :: acc) k.gates []
  |> List.sort String.compare

let invoke_gate k ~caller ~name ~arg =
  match Hashtbl.find_opt k.gates name with
  | None -> Error (Os_error.No_such_gate name)
  | Some gate -> (
      match
        Resource.charge caller.Proc.usage caller.Proc.limits
          Resource.Processes 1
      with
      | Error kind -> Error (Os_error.Quota_exceeded kind)
      | Ok () ->
          let pid = fresh_pid k in
          let proc =
            Proc.make ~pid
              ~name:("gate:" ^ name)
              ~owner:gate.g_owner ~labels:caller.Proc.labels ~caps:gate.g_caps
              ~limits:Resource.default_app_limits
          in
          Hashtbl.replace k.procs pid proc;
          let body ctx = gate.g_entry ctx arg in
          Hashtbl.replace k.bodies pid body;
          Metrics.inc k.k_meters.gate_invocations ~labels:[ ("gate", name) ];
          record k ~pid:caller.Proc.pid
            (Audit.Gate_invoked { gate = name; child = pid });
          Tracer.with_span k.k_tracer
            ~clock:(fun () -> k.k_tick)
            ("gate:" ^ name)
            (fun () -> run_proc k proc);
          Ok proc)
