open W5_os

(* {1 The preemption model}

   PR 9's scheduler suspends a process only when a syscall dispatch
   crosses [Kernel.preempt_point] at entry — never mid-syscall — and
   gate children run nested inside their caller's dispatch, so a gate
   body is atomic with respect to the interleaving. Both facts are
   exported by [Sched] as introspection constants and consumed here
   rather than restated: if the scheduler changes, the model follows
   or the differential-soundness replay turns red. *)

type context = Direct | Gate_body

type step = { ctx : context; op : string }

type program = {
  name : string;
  multiplicity : int;
      (** how many concurrent instances of this archetype may run;
          >= 2 means the program may interleave with itself *)
  steps : step list;
}

type model = {
  programs : program list;
  specs : Syscall.Spec.t list;
}

let make programs = { programs; specs = Syscall.Spec.all }

let spec_of model op =
  match List.find_opt (fun s -> s.Syscall.Spec.op = op) model.specs with
  | Some s -> Some s
  | None -> None

(* May the scheduler take the CPU away immediately *before* [step]
   runs? Only if the op's dispatch crosses the entry preemption point
   with the hook in place — which a gate-body step never does when
   gate children are atomic. Ops whose spec declares [entry_preempt =
   false] (probe-only) are not preemption points at all. *)
let preempt_before model step =
  match spec_of model step.op with
  | None -> false
  | Some spec ->
      spec.Syscall.Spec.entry_preempt
      && (step.ctx = Direct || not Sched.gate_children_atomic)

(* {2 May-happen-in-parallel}

   Two steps of different processes may interleave iff the scheduler
   can transfer control between them. With entry-only preemption a
   foreign step can intrude between two steps [i] and [j] of the same
   program exactly when some step in (i, j] is preemptible at entry —
   the CPU is handed over just before that step runs. *)

let may_intrude_between model steps_between_exclusive_then_target =
  List.exists (preempt_before model) steps_between_exclusive_then_target

(* {2 Exhaustive interleaving oracle}

   For tiny configurations (2–3 program instances, a handful of steps
   each) enumerate every schedule the preemption model admits. Used by
   the test suite as ground truth for the static analysis: every
   adjacent cross-instance step pair observable in some schedule must
   be one the analysis considered possible, and vice versa on the
   small configs. *)

type instance = { i_prog : program; i_id : int }

type schedule = (instance * step) list

let instances model =
  List.concat_map
    (fun p -> List.init p.multiplicity (fun i -> { i_prog = p; i_id = i }))
    model.programs

let max_oracle_states = 2_000_000

let interleavings model =
  let insts = Array.of_list (instances model) in
  let n = Array.length insts in
  if n > 3 then
    invalid_arg "Mhp.interleavings: oracle is for <= 3 instances";
  let steps = Array.map (fun i -> Array.of_list i.i_prog.steps) insts in
  let total = Array.fold_left (fun a s -> a + Array.length s) 0 steps in
  if total > 18 then
    invalid_arg "Mhp.interleavings: oracle is for <= 18 total steps";
  let idx = Array.make n 0 in
  let out = ref [] in
  let states = ref 0 in
  (* [running] is the instance currently holding the CPU (-1 at the
     very start, before anyone ran). A switch away from [running] to
     another instance is legal only when [running] is finished or its
     *next* step is preemptible at entry — exactly the scheduler's
     hand-over points. *)
  let rec go running acc =
    incr states;
    if !states > max_oracle_states then
      invalid_arg "Mhp.interleavings: state budget exceeded";
    if Array.for_all2 (fun i s -> i >= Array.length s) idx steps then
      out := List.rev acc :: !out
    else
      for c = 0 to n - 1 do
        if idx.(c) < Array.length steps.(c) then begin
          let step = steps.(c).(idx.(c)) in
          let legal =
            running = -1 || running = c
            || idx.(running) >= Array.length steps.(running)
            ||
            (* the running instance is parked just before its next
               step; that step must be a preemption point for the
               scheduler to have taken the CPU away *)
            preempt_before model steps.(running).(idx.(running))
          in
          if legal then begin
            idx.(c) <- idx.(c) + 1;
            go c ((insts.(c), step) :: acc);
            idx.(c) <- idx.(c) - 1
          end
        end
      done
  in
  go (-1) [];
  !out

(* Cross-instance adjacent pairs observable in at least one admitted
   schedule: the oracle-side notion of "these two ops can interleave".
   Returned as (op of earlier step, op of later step, contexts). *)
let observable_adjacencies model =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun sched ->
      let rec walk = function
        | (ia, sa) :: ((ib, sb) :: _ as rest) ->
            if not (ia.i_prog.name = ib.i_prog.name && ia.i_id = ib.i_id) then
              Hashtbl.replace tbl (sa.op, sa.ctx, sb.op, sb.ctx) ();
            walk rest
        | _ -> ()
      in
      walk sched)
    (interleavings model);
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
