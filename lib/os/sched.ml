open W5_obs

type policy = Fifo | Seeded of int

let policy_label = function Fifo -> "fifo" | Seeded _ -> "seeded"

(* Cooperative preemption via OCaml 5 effects: the kernel's preempt
   hook performs [Yield] at a syscall-dispatch boundary; the per-slice
   deep handler captures the continuation and hands the CPU back to
   the scheduler. No domains, no threads — interleaving is a pure
   function of (policy, seed, workload), which is what makes same-seed
   runs byte-identical. *)
type _ Effect.t += Yield : unit Effect.t

type slice_result =
  | Completed
  | Yielded of (unit, slice_result) Effect.Deep.continuation

type slot = {
  s_proc : Proc.t;
  mutable s_resume : resume;
}

and resume =
  | Start of Kernel.body
  | Suspended of (unit, slice_result) Effect.Deep.continuation

type stats = {
  slices : int;
  preemptions : int;
  completed : int;
  killed : int;
  max_depth : int;
}

type t = {
  sk : Kernel.t;
  policy : policy;
  quantum : int;
  mutable rng : int64;
  (* Circular run queue. [Fifo] pops the head (true round-robin);
     [Seeded] pops a pseudo-random logical index in O(1) by swapping
     the victim with the head first — order past the swap point is
     perturbed, which a random-pick policy cannot observe. *)
  mutable buf : slot option array;
  mutable head : int;
  mutable len : int;
  (* pid of the process currently inside a slice (-1 when idle): the
     preempt hook must ignore kernel crossings by any other process
     (e.g. a body run synchronously outside the scheduler) because
     only the sliced process has a handler installed. *)
  mutable current : int;
  mutable slice_start : int;
  mutable st_slices : int;
  mutable st_preempt : int;
  mutable st_completed : int;
  mutable st_killed : int;
  mutable st_max_depth : int;
  m_slices : Metrics.metric;
  m_preempt : Metrics.metric;
  m_depth : Metrics.metric;
  m_slice_ticks : Metrics.metric;
}

let default_quantum = 4

let create ?(quantum = default_quantum) ?(policy = Fifo) kernel =
  let m = Kernel.metrics kernel in
  {
    sk = kernel;
    policy;
    quantum = max 1 quantum;
    rng = (match policy with Seeded s -> Int64.of_int s | Fifo -> 0L);
    buf = Array.make 64 None;
    head = 0;
    len = 0;
    current = -1;
    slice_start = 0;
    st_slices = 0;
    st_preempt = 0;
    st_completed = 0;
    st_killed = 0;
    st_max_depth = 0;
    m_slices =
      Metrics.counter m "w5_sched_slices_total"
        ~help:"Scheduler slices (context switches) by policy";
    m_preempt =
      Metrics.counter m "w5_sched_preemptions_total"
        ~help:"Slices ended by quantum expiry rather than completion";
    m_depth =
      Metrics.histogram m "w5_sched_runq_depth"
        ~help:"Run-queue depth observed at each slice start";
    m_slice_ticks =
      Perf.latency m "w5_sched_slice_ticks"
        ~help:"Logical-clock ticks consumed per scheduler slice";
  }

(* splitmix64 — same generator as W5_workload.Rng, inlined here so
   lib/os does not depend on the workload layer. *)
let next_rand t =
  let open Int64 in
  t.rng <- add t.rng 0x9E3779B97F4A7C15L;
  let z = t.rng in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  (* keep it a nonnegative OCaml int: to_int keeps the low 63 bits,
     so mask to 62 before converting *)
  to_int (logand z 0x3FFFFFFFFFFFFFFFL)

let capacity t = Array.length t.buf

let grow t =
  let n = capacity t in
  let nbuf = Array.make (2 * n) None in
  for j = 0 to t.len - 1 do
    nbuf.(j) <- t.buf.((t.head + j) mod n)
  done;
  t.buf <- nbuf;
  t.head <- 0

let push t slot =
  if t.len = capacity t then grow t;
  t.buf.((t.head + t.len) mod capacity t) <- Some slot;
  t.len <- t.len + 1

let pop_at t i =
  let n = capacity t in
  let pi = (t.head + i) mod n in
  (* indices below [len] are always populated; an empty slot here
     means the circular-buffer bookkeeping itself is broken *)
  match t.buf.(pi) with
  | None -> invalid_arg "Sched.pop_at: empty slot inside run queue"
  | Some slot ->
      t.buf.(pi) <- t.buf.(t.head);
      t.buf.(t.head) <- None;
      t.head <- (t.head + 1) mod n;
      t.len <- t.len - 1;
      slot

let queue_depth t = t.len
let quantum t = t.quantum
let policy t = t.policy

let stats t =
  {
    slices = t.st_slices;
    preemptions = t.st_preempt;
    completed = t.st_completed;
    killed = t.st_killed;
    max_depth = t.st_max_depth;
  }

let handler =
  Effect.Deep.
    {
      retc = (fun () -> Completed);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, slice_result) Effect.Deep.continuation) ->
                  Yielded k)
          | _ -> None);
    }

(* Pull every process spawned since the last admission point off the
   kernel run queue, in spawn order. The run queue holds only processes
   that have not started: [Kernel.run_proc] takes a process off it as it
   starts (a [Gateway.conclude] without a drain runs its process that
   way), so no body is admitted twice. *)
let admit t =
  let rec loop () =
    match Kernel.take_pending t.sk with
    | None -> ()
    | Some (proc, body) ->
        push t { s_proc = proc; s_resume = Start body };
        loop ()
  in
  loop ()

let pick t =
  if t.len = 0 then None
  else
    let i = match t.policy with Fifo -> 0 | Seeded _ -> next_rand t mod t.len in
    Some (pop_at t i)

(* An admitted process ends only inside its own slice, so every slot
   popped here holds a live process. *)
let run_slice t slot =
  let k = t.sk in
  let proc = slot.s_proc in
  let depth = t.len + 1 in
  if depth > t.st_max_depth then t.st_max_depth <- depth;
  Metrics.observe t.m_depth depth;
  Metrics.inc t.m_slices ~labels:[ ("policy", policy_label t.policy) ];
  t.st_slices <- t.st_slices + 1;
  (* the context switch itself costs one tick, like a dispatch *)
  Kernel.advance_clock k;
  t.current <- proc.Proc.pid;
  t.slice_start <- Kernel.tick k;
  let run () =
    match slot.s_resume with
    | Start body ->
        proc.Proc.state <- Proc.Running;
        Effect.Deep.match_with
          (fun () -> body { Kernel.kernel = k; proc })
          () handler
    | Suspended cont -> Effect.Deep.continue cont ()
  in
  let tracer = Kernel.tracer k in
  let result =
    try
      if Tracer.enabled tracer then
        Tracer.with_span tracer
          ~clock:(fun () -> Kernel.tick k)
          ~fields:[ ("pid", string_of_int proc.Proc.pid) ]
          "sched.slice" run
      else run ()
    with exn ->
      ignore (Kernel.fail_proc k proc exn);
      Completed
  in
  t.current <- -1;
  Metrics.observe t.m_slice_ticks (Kernel.tick k - t.slice_start);
  match result with
  | Completed -> (
      match proc.Proc.state with
      | Proc.Killed _ -> t.st_killed <- t.st_killed + 1
      | Proc.Running | Proc.Runnable | Proc.Exited ->
          Kernel.finish_proc k proc;
          t.st_completed <- t.st_completed + 1)
  | Yielded cont ->
      t.st_preempt <- t.st_preempt + 1;
      Metrics.inc t.m_preempt ~labels:[ ("policy", policy_label t.policy) ];
      slot.s_resume <- Suspended cont;
      push t slot

let hook t proc =
  if
    proc.Proc.pid = t.current
    && Kernel.tick t.sk - t.slice_start >= t.quantum
  then Effect.perform Yield

let drain t =
  Kernel.set_preempt_hook t.sk (Some (hook t));
  Fun.protect
    ~finally:(fun () -> Kernel.set_preempt_hook t.sk None)
    (fun () ->
      let rec loop () =
        admit t;
        match pick t with
        | None -> ()
        | Some slot ->
            run_slice t slot;
            loop ()
      in
      loop ())

let run ?quantum ?policy kernel =
  let t = create ?quantum ?policy kernel in
  drain t;
  stats t
