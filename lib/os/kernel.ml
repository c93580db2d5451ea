open W5_difc
open W5_obs

module Pids = Map.Make (Int)

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
  k_fs : Fs.t;
  k_audit : Audit.log;
  (* live processes: a process leaves when it ends *)
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  (* queued processes that have not started, with their bodies; pid
     order is spawn order, so this is also the FIFO run queue *)
  mutable pending : (Proc.t * body) Pids.t;
  gates : (string, gate) Hashtbl.t;
  mutable k_tick : int;
  mutable k_enforcing : bool;
  k_principal : Principal.t;
  k_metrics : Metrics.t;
  k_tracer : Tracer.t;
  k_meters : meters;
  (* Installed by the scheduler (Sched) for the duration of a drain:
     called by the syscall layer at every dispatch entry so a running
     process can be preempted at kernel-crossing boundaries. Set aside
     while a gate child runs ([invoke_gate]). *)
  mutable k_preempt : (Proc.t -> unit) option;
  mutable k_locals : local list;
}

(* One [Local] slot's value on this kernel; the slot's type id
   recovers the value's type. *)
and local = Binding : 'a Type.Id.t * 'a -> local

and ctx = {
  kernel : t;
  proc : Proc.t;
}

and body = ctx -> unit

exception Quota_kill of Resource.kind

(* A full log of 65,536 entries measured 5.1 to 7.6 MiB by
   Obj.reachable_words after the bench/e2e workloads, 82-121 B an
   entry: enough history for denial queries over a long trace, small
   enough that a soak run's memory stays flat. Sequence numbers keep
   counting across eviction, so truncation is observable
   (Audit.evicted). *)
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

let create ?(enforcing = true) () =
  let k_metrics = Metrics.create () in
  let k =
    {
      k_fs = Fs.create ();
      k_audit = Audit.create ~capacity:default_audit_capacity;
      procs = Hashtbl.create 64;
      next_pid = 0;
      pending = Pids.empty;
      gates = Hashtbl.create 16;
      k_tick = 0;
      k_enforcing = enforcing;
      k_principal = Principal.make Principal.Provider "kernel";
      k_metrics;
      k_tracer = Tracer.create ();
      k_meters = make_meters k_metrics;
      k_preempt = None;
      k_locals = [];
    }
  in
  (* ring evictions surface as a counter, not only in the traces
     exposition footer *)
  Tracer.set_on_drop k.k_tracer (fun n ->
      Metrics.inc k.k_meters.trace_dropped ~by:n);
  k

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

(* Per-kernel state of the modules above, kept on the kernel record so
   that it is freed with the kernel. A kernel carries a handful of
   slots, so a list walk beats any table. *)
module Local = struct
  type kernel = t
  type 'a t = { id : 'a Type.Id.t; init : unit -> 'a }

  let create init = { id = Type.Id.make (); init }

  let rec find : type a. a t -> kernel -> local list -> a =
   fun slot k -> function
    | [] ->
        let v = slot.init () in
        k.k_locals <- Binding (slot.id, v) :: k.k_locals;
        v
    | Binding (id, v) :: rest -> (
        match Type.Id.provably_equal slot.id id with
        | Some Type.Equal -> v
        | None -> find slot k rest)

  let get slot k = find slot k k.k_locals
end

let record k ~pid event =
  Metrics.inc k.k_meters.audit_events
    ~labels:[ ("event", Audit.event_kind event) ];
  Audit.record k.k_audit ~tick:k.k_tick ~pid event

let set_preempt_hook k hook = k.k_preempt <- hook

(* Preemption points sit at syscall-dispatch entry. A gate child never
   meets one: [invoke_gate] sets the hook aside while the child runs. *)
let preempt_point k proc =
  match k.k_preempt with Some hook -> hook proc | None -> ()

(* A fresh pid and its record in the process table. *)
let enter k ~name ~owner ~labels ~caps ~limits =
  k.next_pid <- k.next_pid + 1;
  let proc = Proc.make ~pid:k.next_pid ~name ~owner ~labels ~caps ~limits in
  Hashtbl.replace k.procs k.next_pid proc;
  proc

(* Enter a new process in the table and book its creation; the audit
   log names [parent] (or the platform, pid 0) as the spawner. *)
let create_proc k ?parent ~name ~owner ~labels ~caps ~limits () =
  let checked =
    match parent with
    | None -> Ok ()
    | Some p -> (
        match
          Resource.charge p.Proc.usage p.Proc.limits Resource.Processes 1
        with
        | Error kind -> Error (Os_error.Quota_exceeded kind)
        | Ok () when not k.k_enforcing -> Ok ()
        | Ok () when not (Capability.Set.subset caps p.Proc.caps) ->
            Error
              (Os_error.Permission "spawn: child capabilities exceed parent's")
        | Ok () ->
            Result.map_error
              (fun d -> Os_error.Denied d)
              (Flow.check_labels_change ~caps:p.Proc.caps
                 ~old_labels:p.Proc.labels ~new_labels:labels))
  in
  match checked with
  | Error _ as e -> e
  | Ok () ->
      let proc = enter k ~name ~owner ~labels ~caps ~limits in
      Metrics.inc k.k_meters.spawns;
      let actor = match parent with Some p -> p.Proc.pid | None -> 0 in
      record k ~pid:actor
        (Audit.Spawned { child = proc.Proc.pid; name; labels });
      Ok proc

let spawn k ?parent ~name ~owner ~labels ~caps ~limits body =
  match create_proc k ?parent ~name ~owner ~labels ~caps ~limits () with
  | Error _ as e -> e
  | Ok proc ->
      k.pending <- Pids.add proc.Proc.pid (proc, body) k.pending;
      Ok proc

(* Completion and failure bookkeeping, shared between the synchronous
   [bracket] below and the interleaved scheduler (Sched): both must
   stamp the finish tick, take the process out of the table and
   convert quota kills / stray exceptions into audited [Killed]
   states. *)
let ended k proc =
  proc.Proc.finished_tick <- Some k.k_tick;
  Hashtbl.remove k.procs proc.Proc.pid

let finish_proc k proc =
  proc.Proc.state <- Proc.Exited;
  ended k proc

let fail_proc k proc exn =
  ended k proc;
  match exn with
  | Quota_kill kind ->
      let reason = "quota: " ^ Resource.kind_to_string kind in
      Proc.kill proc ~reason;
      Metrics.inc k.k_meters.quota_kills
        ~labels:[ ("kind", Resource.kind_to_string kind) ];
      record k ~pid:proc.Proc.pid (Audit.Quota_hit kind);
      record k ~pid:proc.Proc.pid (Audit.Killed { reason });
      Os_error.Quota_exceeded kind
  | exn ->
      let reason = "uncaught: " ^ Printexc.to_string exn in
      Proc.kill proc ~reason;
      record k ~pid:proc.Proc.pid (Audit.Killed { reason });
      Os_error.Invalid reason

(* The one synchronous lifecycle: a process starts, its body runs to
   the end, and the kernel books how it ended. Never raises. *)
let bracket k proc f =
  proc.Proc.state <- Proc.Running;
  advance_clock k;
  match f { kernel = k; proc } with
  | v ->
      finish_proc k proc;
      Ok v
  | exception exn -> Error (fail_proc k proc exn)

let run_proc k proc =
  let pid = proc.Proc.pid in
  match Pids.find_opt pid k.pending with
  | None -> ()
  | Some (_, body) ->
      k.pending <- Pids.remove pid k.pending;
      ignore (bracket k proc body)

let exec k ~name ~owner ~labels ~caps ~limits f =
  match create_proc k ~name ~owner ~labels ~caps ~limits () with
  | Error e -> Error e
  | Ok proc -> Result.join (bracket k proc f)

let capture_response ctx f =
  let proc = ctx.proc in
  let saved = proc.Proc.response in
  proc.Proc.response <- None;
  Fun.protect
    ~finally:(fun () -> proc.Proc.response <- saved)
    (fun () ->
      f ();
      proc.Proc.response)

(* Admission interface for the interleaved scheduler: pull the oldest
   unstarted process off the kernel run queue without executing it. *)
let take_pending k =
  match Pids.min_binding_opt k.pending with
  | None -> None
  | Some (pid, entry) ->
      k.pending <- Pids.remove pid k.pending;
      Some entry

let rec run k =
  match take_pending k with
  | None -> ()
  | Some (proc, body) ->
      ignore (bracket k proc body);
      run k

let pending_count k = Pids.cardinal k.pending

let find_proc k pid = Hashtbl.find_opt k.procs pid

let processes k =
  Hashtbl.fold (fun _ p acc -> p :: acc) k.procs []
  |> List.sort (fun a b -> Int.compare a.Proc.pid b.Proc.pid)

let live_process_count k = Hashtbl.length k.procs

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
          let proc =
            enter k ~name:("gate:" ^ name) ~owner:gate.g_owner
              ~labels:caller.Proc.labels ~caps:gate.g_caps
              ~limits:Resource.default_app_limits
          in
          Metrics.inc k.k_meters.gate_invocations ~labels:[ ("gate", name) ];
          record k ~pid:caller.Proc.pid
            (Audit.Gate_invoked { gate = name; child = proc.Proc.pid });
          (* Privilege transfer is atomic: with the preemption hook set
             aside no scheduler can suspend the child, and [bracket]
             never raises, so the hook always comes back. The body is
             never queued, so nothing keeps [arg] once the child ends. *)
          let hook = k.k_preempt in
          let traced = Tracer.enabled k.k_tracer in
          k.k_preempt <- None;
          if traced then
            Tracer.start_span k.k_tracer ~tick:k.k_tick proc.Proc.proc_name;
          ignore (bracket k proc (fun ctx -> gate.g_entry ctx arg));
          if traced then Tracer.end_span k.k_tracer ~tick:k.k_tick;
          k.k_preempt <- hook;
          Ok proc)
