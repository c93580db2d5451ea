open W5_os
open W5_obs

(* {1 Findings} *)

type finding =
  | Stale_flow_check of {
      program : string;
      check_op : string;
      act_op : string;
      cell : Footprint.cell;
      writer_program : string;
      writer_op : string;
    }
  | Benign_commute of {
      cell : Footprint.cell;
      prog_a : string;
      op_a : string;
      prog_b : string;
      op_b : string;
      kind_a : Footprint.write_kind;
      kind_b : Footprint.write_kind;
    }

let severity_of = function
  | Stale_flow_check _ -> Severity.High
  | Benign_commute _ -> Severity.Info

let kind_of = function
  | Stale_flow_check _ -> "stale_flow_check"
  | Benign_commute _ -> "benign_commute"

let message = function
  | Stale_flow_check { program; check_op; act_op; cell; writer_program;
                       writer_op } ->
      Printf.sprintf
        "%s: %s checks %s, then %s acts on it without revalidating across \
         a preemption point; %s/%s can rewrite it in between"
        program check_op
        (Footprint.cell_name cell)
        act_op writer_program writer_op
  | Benign_commute { cell; prog_a; op_a; prog_b; op_b; kind_a; kind_b } ->
      Printf.sprintf "%s/%s and %s/%s both write %s but %s/%s commute"
        prog_a op_a prog_b op_b
        (Footprint.cell_name cell)
        (Footprint.write_kind_name kind_a)
        (Footprint.write_kind_name kind_b)

(* {1 The analysis} *)

type report = {
  model : Mhp.model;
  findings : finding list;  (** worst first, then by message *)
  pairs_examined : int;
      (** cross-instance step pairs the MHP model says can interleave *)
  pairs_ordered : int;
      (** conflicting write/write pairs that do not commute — safe only
          because each dispatch is atomic, so they serialize *)
  pairs_revalidated : int;
      (** read/write pairs where the reader's op revalidates the cell
          inside its own dispatch, closing the check-to-act window *)
}

let worst report =
  Severity.worst (List.map severity_of report.findings)

let exit_code report = Severity.exit_code (worst report)

(* step position helpers over one program's step array *)
let can_handoff_after model steps i =
  i + 1 >= Array.length steps || Mhp.preempt_before model steps.(i + 1)

let can_park_at model steps j =
  j = 0 || Mhp.preempt_before model steps.(j)

(* Can step [i] of an [a]-instance and step [j] of a distinct
   [b]-instance end up adjacent in some admitted schedule (either
   order)? This is exactly the oracle's hand-over rule: the CPU
   leaves an instance only when its next step is preemptible (or it
   finished), and lands on an instance parked at its first step or a
   preemptible one. *)
let mhp_steps model a_steps i b_steps j =
  (can_handoff_after model a_steps i && can_park_at model b_steps j)
  || (can_handoff_after model b_steps j && can_park_at model a_steps i)

let cross_instance (a : Mhp.program) (b : Mhp.program) =
  a.Mhp.name <> b.Mhp.name || a.Mhp.multiplicity >= 2

let analyze (model : Mhp.model) =
  let programs = Array.of_list model.Mhp.programs in
  let steps_of p = Array.of_list p.Mhp.steps in
  let spec_of (s : Mhp.step) = Mhp.spec_of model s.Mhp.op in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let pairs_examined = ref 0 in
  let pairs_ordered = ref 0 in
  let pairs_revalidated = ref 0 in
  (* Stale flow checks: within one program, a dependency consumed at
     step [j] that is not revalidated there, checked at some earlier
     step [i], with a preemption point in between and a foreign
     MHP writer for the cell. *)
  Array.iter
    (fun (p : Mhp.program) ->
      let steps = steps_of p in
      Array.iteri
        (fun j (sj : Mhp.step) ->
          match spec_of sj with
          | None -> ()
          | Some spec_j ->
              let unrevalidated =
                List.filter
                  (fun c ->
                    not (List.mem c spec_j.Syscall.Spec.revalidates))
                  spec_j.Syscall.Spec.depends
              in
              List.iter
                (fun cell ->
                  (* earliest earlier step reading an alias of [cell]
                     is the check the action implicitly trusts *)
                  let check = ref None in
                  Array.iteri
                    (fun i (si : Mhp.step) ->
                      if i < j && !check = None then
                        match spec_of si with
                        | Some spec_i
                          when List.exists
                                 (fun c -> Footprint.may_alias c cell)
                                 spec_i.Syscall.Spec.reads ->
                            check := Some (i, si)
                        | _ -> ())
                    steps;
                  match !check with
                  | None -> ()
                  | Some (i, si) ->
                      let between =
                        Array.to_list (Array.sub steps (i + 1) (j - i))
                      in
                      if Mhp.may_intrude_between model between then
                        (* every foreign MHP writer of an alias *)
                        Array.iter
                          (fun (q : Mhp.program) ->
                            if cross_instance p q then
                              let q_steps = steps_of q in
                              Array.iteri
                                (fun jq (sq : Mhp.step) ->
                                  if can_park_at model q_steps jq then
                                    match spec_of sq with
                                    | Some spec_q
                                      when List.exists
                                             (fun (c, _) ->
                                               Footprint.may_alias c cell)
                                             spec_q.Syscall.Spec.writes ->
                                        emit
                                          (Stale_flow_check
                                             {
                                               program = p.Mhp.name;
                                               check_op = si.Mhp.op;
                                               act_op = sj.Mhp.op;
                                               cell;
                                               writer_program = q.Mhp.name;
                                               writer_op = sq.Mhp.op;
                                             })
                                    | _ -> ())
                                q_steps)
                          programs)
                unrevalidated)
        steps)
    programs;
  (* The cross-instance conflict surface: every MHP step pair with a
     footprint conflict, classified. *)
  let n = Array.length programs in
  for a = 0 to n - 1 do
    for b = a to n - 1 do
      let pa = programs.(a) and pb = programs.(b) in
      if cross_instance pa pb then begin
        let sa = steps_of pa and sb = steps_of pb in
        Array.iteri
          (fun i (si : Mhp.step) ->
            Array.iteri
              (fun j (sj : Mhp.step) ->
                (* same program: unordered pairs once *)
                if (a <> b || j >= i) && mhp_steps model sa i sb j then
                  match (spec_of si, spec_of sj) with
                  | Some spec_i, Some spec_j ->
                      List.iter
                        (fun (c : Footprint.conflict) ->
                          incr pairs_examined;
                          if c.Footprint.benign then begin
                            match
                              ( Footprint.write_kinds_on c.Footprint.cell
                                  spec_i,
                                Footprint.write_kinds_on c.Footprint.cell
                                  spec_j )
                            with
                            | ka :: _, kb :: _ ->
                                emit
                                  (Benign_commute
                                     {
                                       cell = c.Footprint.cell;
                                       prog_a = pa.Mhp.name;
                                       op_a = si.Mhp.op;
                                       prog_b = pb.Mhp.name;
                                       op_b = sj.Mhp.op;
                                       kind_a = ka;
                                       kind_b = kb;
                                     })
                            | _ -> ()
                          end
                          else if
                            c.Footprint.a_writes && c.Footprint.b_writes
                          then incr pairs_ordered
                          else incr pairs_revalidated)
                        (Footprint.conflicts spec_i spec_j)
                  | _ -> ())
              sb)
          sa
      end
    done
  done;
  let dedup l =
    List.sort_uniq Stdlib.compare l
  in
  let ranked =
    List.stable_sort
      (fun x y ->
        match
          Int.compare
            (Severity.rank (severity_of y))
            (Severity.rank (severity_of x))
        with
        | 0 -> String.compare (message x) (message y)
        | c -> c)
      (dedup !findings)
  in
  {
    model;
    findings = ranked;
    pairs_examined = !pairs_examined;
    pairs_ordered = !pairs_ordered;
    pairs_revalidated = !pairs_revalidated;
  }

(* The cells on which the model admits any cross-instance conflict:
   the predicted interference surface the differential replay checks
   observed conflicts against. *)
let predicted_cells (model : Mhp.model) =
  let cells = ref [] in
  let programs = Array.of_list model.Mhp.programs in
  let steps_of p = Array.of_list p.Mhp.steps in
  let n = Array.length programs in
  for a = 0 to n - 1 do
    for b = a to n - 1 do
      let pa = programs.(a) and pb = programs.(b) in
      if cross_instance pa pb then
        let sa = steps_of pa and sb = steps_of pb in
        Array.iteri
          (fun i (si : Mhp.step) ->
            Array.iteri
              (fun j (sj : Mhp.step) ->
                if (a <> b || j >= i) && mhp_steps model sa i sb j then
                  match (Mhp.spec_of model si.Mhp.op, Mhp.spec_of model sj.Mhp.op) with
                  | Some spec_i, Some spec_j ->
                      List.iter
                        (fun (c : Footprint.conflict) ->
                          cells := c.Footprint.cell :: !cells)
                        (Footprint.conflicts spec_i spec_j)
                  | _ -> ())
              sb)
          sa
    done
  done;
  List.sort_uniq Stdlib.compare !cells

(* {1 Archetype model from a static snapshot}

   Three straight-line program shapes cover what the showcase platform
   actually runs: an app request handler (reads, tainting reads, IPC,
   appends, a gate call, a response), a declassifier gate body, and an
   owner session doing policy surgery (relabels, grants, label sets).
   Multiplicities come from the snapshot so bigger platforms widen the
   self-interference surface. *)

let model_of_static st =
  let napps = List.length (Static.apps st) in
  let ngates = List.length (Static.gates st) in
  let nusers = List.length (Static.users st) in
  let clamp lo hi v = max lo (min hi v) in
  let app =
    {
      Mhp.name = "app";
      multiplicity = clamp 2 8 napps;
      steps =
        List.map
          (fun op -> { Mhp.ctx = Mhp.Direct; op })
          [ "fs.stat"; "fs.read"; "fs.read_taint"; "ipc.recv"; "label.taint";
            "fs.create"; "fs.append"; "gate.invoke"; "proc.respond" ];
    }
  in
  let gate =
    {
      Mhp.name = "declassifier-gate";
      multiplicity = clamp 1 4 ngates;
      steps =
        List.map
          (fun op -> { Mhp.ctx = Mhp.Gate_body; op })
          [ "label.declassify"; "proc.respond" ];
    }
  in
  let owner =
    {
      Mhp.name = "owner-session";
      multiplicity = clamp 1 4 nusers;
      steps =
        List.map
          (fun op -> { Mhp.ctx = Mhp.Direct; op })
          [ "fs.stat"; "fs.relabel"; "cap.grant"; "label.set" ];
    }
  in
  Mhp.make (app :: (if ngates > 0 then [ gate ] else []) @ [ owner ])

(* The deliberately-broken variant CI proves the detector against: a
   writer whose object-labels dependency is *not* revalidated inside
   its dispatch — the exact shape a response/permission cache would
   have if it trusted a pre-preemption flow check (ROADMAP item 3's
   cache, done wrong). *)
let seed_toctou (model : Mhp.model) =
  let specs =
    List.map
      (fun (s : Syscall.Spec.t) ->
        if s.Syscall.Spec.op = "fs.write" then
          { s with Syscall.Spec.revalidates = [] }
        else s)
      model.Mhp.specs
  in
  let cached_writer =
    {
      Mhp.name = "cached-writer";
      multiplicity = 2;
      steps =
        List.map
          (fun op -> { Mhp.ctx = Mhp.Direct; op })
          [ "fs.stat"; "fs.write" ];
    }
  in
  { Mhp.specs; programs = model.Mhp.programs @ [ cached_writer ] }

(* {1 Differential replay}

   Replay a real (PR 9) scheduler/soak audit log against the model:
   every observed cross-thread conflict on a label cell must be on the
   model's predicted interference surface, and nothing may intrude
   into a gate-atomic region. A conflict observed that the static
   model called impossible is a soundness alarm. *)

type replay = {
  events_seen : int;
  threads_seen : int;
  interleavings_observed : int;
      (** same-thread gaps with at least one foreign event inside *)
  conflicts_observed : int;
      (** cross-thread same-instance label conflicts in those gaps *)
  unpredicted : string list;
      (** observed conflicts off the predicted surface (soundness
          alarms) — deduplicated descriptions *)
  atomic_violations : string list;
      (** foreign events inside a gate-atomic region *)
}

let replay_worst r =
  if r.unpredicted <> [] || r.atomic_violations <> [] then
    Some Severity.Critical
  else None

let replay_exit_code r = Severity.exit_code (replay_worst r)

(* cell instances observed at runtime: objects are keyed by path,
   subject label state by pid *)
type inst = Obj of string | Subj of int

type access = { a_inst : inst; a_write : Footprint.write_kind option }

let accesses_of pid (ev : Audit.event) : access list =
  match ev with
  | Audit.Tainted { subject; _ } ->
      { a_inst = Subj pid; a_write = Some Footprint.Merge }
      :: (match subject with
         | Audit.File p -> [ { a_inst = Obj p; a_write = None } ]
         | Audit.Peer q -> [ { a_inst = Subj q; a_write = None } ]
         | _ -> [])
  | Audit.Declassified _ ->
      [ { a_inst = Subj pid; a_write = Some Footprint.Retract } ]
  | Audit.Label_changed { decision = Ok (); _ } ->
      [ { a_inst = Subj pid; a_write = Some Footprint.Assign } ]
  | Audit.Label_changed { decision = Error _; _ } ->
      [ { a_inst = Subj pid; a_write = None } ]
  | Audit.Object_labeled { path; _ } ->
      [ { a_inst = Obj path; a_write = Some Footprint.Assign } ]
  | Audit.Flow_checked { subject; _ } ->
      { a_inst = Subj pid; a_write = None }
      :: (match subject with
         | Audit.File p -> [ { a_inst = Obj p; a_write = None } ]
         | Audit.Peer q -> [ { a_inst = Subj q; a_write = None } ]
         | _ -> [])
  | Audit.Export_attempted _ -> [ { a_inst = Subj pid; a_write = None } ]
  | Audit.Spawned { child; _ } ->
      [ { a_inst = Subj child; a_write = Some Footprint.Assign } ]
  | _ -> []

let fold_audit (model : Mhp.model) log =
  let predicted = predicted_cells model in
  let covers_subject =
    (* a subject/peer-labels conflict is predicted if any peer-aliased
       or subject cell is on the surface *)
    List.exists
      (fun c ->
        match c with
        | Footprint.Peer_labels | Footprint.Subject_secrecy
        | Footprint.Subject_integrity | Footprint.Peer_caps
        | Footprint.Subject_caps -> true
        | _ -> false)
      predicted
  and covers_object =
    List.exists
      (fun c ->
        match c with
        | Footprint.Object_labels | Footprint.Dir_summary -> true
        | _ -> false)
      predicted
  in
  (* thread assignment: a gate child belongs to its caller's thread
     (and is gate-atomic); everything else is its own thread *)
  let thread_of_pid = Hashtbl.create 64 in
  let gate_pids = Hashtbl.create 16 in
  let thread_of pid =
    match Hashtbl.find_opt thread_of_pid pid with
    | Some t -> t
    | None -> pid
  in
  let entries = Audit.entries log in
  List.iter
    (fun (e : Audit.entry) ->
      match e.Audit.event with
      | Audit.Gate_invoked { child; _ } ->
          Hashtbl.replace thread_of_pid child (thread_of e.Audit.pid);
          Hashtbl.replace gate_pids child ()
      | _ -> ())
    entries;
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let tid = Array.map (fun (e : Audit.entry) -> thread_of e.Audit.pid) arr in
  let atomic =
    Array.map
      (fun (e : Audit.entry) ->
        Hashtbl.mem gate_pids e.Audit.pid
        ||
        match e.Audit.event with
        | Audit.Gate_invoked _ -> true
        | _ -> false)
      arr
  in
  let threads = Hashtbl.create 64 in
  Array.iter (fun t -> Hashtbl.replace threads t ()) tid;
  let interleavings = ref 0 in
  let conflicts = ref 0 in
  let unpredicted = ref [] in
  let atomic_violations = ref [] in
  let note_unpredicted d =
    if not (List.mem d !unpredicted) then unpredicted := d :: !unpredicted
  in
  let note_violation d =
    if not (List.mem d !atomic_violations) then
      atomic_violations := d :: !atomic_violations
  in
  (* walk each thread's consecutive event pairs; examine the foreign
     events inside each gap *)
  let last_of_thread = Hashtbl.create 64 in
  for j = 0 to n - 1 do
    let t = tid.(j) in
    (match Hashtbl.find_opt last_of_thread t with
    | Some i when j > i + 1 ->
        (* the gap (i, j) contains only foreign events *)
        let foreign = ref false in
        for k = i + 1 to j - 1 do
          if tid.(k) <> t then begin
            foreign := true;
            (* intrusion into a gate-atomic adjacency is a violation:
               a gate child runs to completion unpreempted, so this
               never fires on a real log *)
            if atomic.(i) && atomic.(j) then
              note_violation
                (Printf.sprintf
                   "foreign pid %d event inside gate-atomic region of \
                    thread %d (seq %d..%d)"
                   arr.(k).Audit.pid t arr.(i).Audit.seq arr.(j).Audit.seq);
            (* conflicts between the intruder and either gap end *)
            List.iter
              (fun (own : Audit.entry) ->
                let own_acc =
                  accesses_of own.Audit.pid own.Audit.event
                in
                let for_acc =
                  accesses_of arr.(k).Audit.pid arr.(k).Audit.event
                in
                List.iter
                  (fun (oa : access) ->
                    List.iter
                      (fun (fa : access) ->
                        if
                          oa.a_inst = fa.a_inst
                          && (oa.a_write <> None || fa.a_write <> None)
                        then begin
                          incr conflicts;
                          let ok =
                            match oa.a_inst with
                            | Obj _ -> covers_object
                            | Subj _ -> covers_subject
                          in
                          if not ok then
                            note_unpredicted
                              (match oa.a_inst with
                              | Obj p ->
                                  Printf.sprintf
                                    "object label conflict on %s not on \
                                     the predicted surface"
                                    p
                              | Subj pid ->
                                  Printf.sprintf
                                    "subject label conflict on pid %d not \
                                     on the predicted surface"
                                    pid)
                        end)
                      for_acc)
                  own_acc)
              [ arr.(i); arr.(j) ]
          end
        done;
        if !foreign then incr interleavings
    | _ -> ());
    Hashtbl.replace last_of_thread t j
  done;
  {
    events_seen = n;
    threads_seen = Hashtbl.length threads;
    interleavings_observed = !interleavings;
    conflicts_observed = !conflicts;
    unpredicted = List.rev !unpredicted;
    atomic_violations = List.rev !atomic_violations;
  }

(* {1 Rendering} *)

let severity_counts findings =
  List.map
    (fun s ->
      ( s,
        List.length
          (List.filter (fun f -> severity_of f = s) findings) ))
    Severity.all

let program_summary (p : Mhp.program) =
  Printf.sprintf "%s (x%d, %d steps)" p.Mhp.name p.Mhp.multiplicity
    (List.length p.Mhp.steps)

let to_text report =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "static interference analysis (preemption-aware vet)";
  line "  scheduler model: entry-preemption-only=%b gate-children-atomic=%b"
    Sched.entry_preemption_only Sched.gate_children_atomic;
  line "  programs: %s"
    (String.concat ", "
       (List.map program_summary report.model.Mhp.programs));
  line "  conflict surface: %d MHP pairs (%d serialized writes, %d revalidated reads)"
    report.pairs_examined report.pairs_ordered report.pairs_revalidated;
  line "";
  (match report.findings with
  | [] -> line "no findings."
  | fs ->
      line "findings (%d):" (List.length fs);
      List.iter
        (fun f ->
          line "  [%s] %s: %s"
            (Severity.name (severity_of f))
            (kind_of f) (message f))
        fs);
  Buffer.contents b

(* hand-rolled JSON, same dialect as Vet's renderer: deterministic
   field order, strings escaped by Exposition.json_string *)
let to_json report =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "{";
  line "  \"schema\": \"w5.interfere/1\",";
  line "  \"scheduler\": {";
  line "    \"entry_preemption_only\": %b," Sched.entry_preemption_only;
  line "    \"gate_children_atomic\": %b" Sched.gate_children_atomic;
  line "  },";
  line "  \"programs\": [";
  let nprogs = List.length report.model.Mhp.programs in
  List.iteri
    (fun i (p : Mhp.program) ->
      line "    {\"name\": %s, \"multiplicity\": %d, \"steps\": [%s]}%s"
        (Exposition.json_string p.Mhp.name) p.Mhp.multiplicity
        (String.concat ", "
           (List.map
              (fun (s : Mhp.step) ->
                Exposition.json_string
                  ((match s.Mhp.ctx with
                   | Mhp.Direct -> ""
                   | Mhp.Gate_body -> "gate:")
                  ^ s.Mhp.op))
              p.Mhp.steps))
        (if i = nprogs - 1 then "" else ","))
    report.model.Mhp.programs;
  line "  ],";
  line "  \"surface\": {\"pairs\": %d, \"ordered\": %d, \"revalidated\": %d},"
    report.pairs_examined report.pairs_ordered report.pairs_revalidated;
  line "  \"counts\": {%s},"
    (String.concat ", "
       (List.map
          (fun (s, c) ->
            Printf.sprintf "%s: %d"
              (Exposition.json_string (Severity.name s))
              c)
          (severity_counts report.findings)));
  line "  \"findings\": [";
  let nf = List.length report.findings in
  List.iteri
    (fun i f ->
      line "    {\"severity\": %s, \"kind\": %s, \"message\": %s}%s"
        (Exposition.json_string (Severity.name (severity_of f)))
        (Exposition.json_string (kind_of f))
        (Exposition.json_string (message f))
        (if i = nf - 1 then "" else ","))
    report.findings;
  line "  ],";
  line "  \"exit_code\": %d" (exit_code report);
  Buffer.add_string b "}";
  Buffer.contents b

let to_dot report =
  let pid name = Dot.ident ("prog_" ^ name) in
  let nodes =
    List.map
      (fun (p : Mhp.program) ->
        Dot.node
          ~attrs:[ ("shape", "box") ]
          (pid p.Mhp.name)
          ~label:(program_summary p))
      report.model.Mhp.programs
  in
  let edge_of f =
    match f with
    | Stale_flow_check { program; writer_program; cell; _ } ->
        Some
          (Dot.edge
             ~attrs:
               [ ("color", "red");
                 ("label", Footprint.cell_name cell) ]
             (pid writer_program)
             (pid program))
    | Benign_commute { prog_a; prog_b; cell; _ } ->
        Some
          (Dot.edge
             ~attrs:
               [ ("style", "dashed");
                 ("color", "gray50");
                 ("label", Footprint.cell_name cell) ]
             (pid prog_a) (pid prog_b))
  in
  let edges =
    List.sort_uniq String.compare (List.filter_map edge_of report.findings)
  in
  Dot.digraph "interference" (nodes @ edges)

let replay_to_text (r : replay) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "differential replay against the static interference model";
  line "  events=%d threads=%d interleaved-gaps=%d observed-conflicts=%d"
    r.events_seen r.threads_seen r.interleavings_observed
    r.conflicts_observed;
  (match (r.unpredicted, r.atomic_violations) with
  | [], [] -> line "  every observed conflict was on the predicted surface."
  | u, a ->
      List.iter (fun d -> line "  [critical] unpredicted: %s" d) u;
      List.iter (fun d -> line "  [critical] atomicity: %s" d) a);
  Buffer.contents b

(* {1 Metrics} *)

let export_metrics registry report =
  let g =
    Metrics.gauge registry "w5_interfere_findings_total"
      ~help:"Interference findings by severity at the last analysis"
  in
  List.iter
    (fun (s, c) ->
      Metrics.set g ~labels:[ ("severity", Severity.name s) ] c)
    (severity_counts report.findings)
