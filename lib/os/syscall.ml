open W5_difc
open W5_obs

type 'a r = ('a, Os_error.t) result

(* {1 Syscall footprints}

   One declarative record per operation, stating which pieces of label
   state the op reads and writes, which label facts its action safety
   *depends* on, and which of those it *revalidates* inside the same
   dispatch. The static interference analysis (lib/analysis) consumes
   this table instead of re-deriving footprints from prose.

   The table cannot drift from the implementation because the records
   below are not merely documentation: [dispatch] takes the spec, uses
   [op] for every metric/trace/histogram label, and consults
   [entry_preempt] to decide whether to cross the scheduler's
   preemption point. A test additionally drives every op once under a
   counting preempt hook and checks the observed crossings against the
   table. *)
module Spec = struct
  (* The unit of interference: one addressable piece of label state.
     Subject_* cells are the calling process's own mutable label state;
     Object_labels / Dir_summary belong to filesystem nodes; Peer_*
     cells are another process's label state touched through IPC,
     capability grants, or spawning. *)
  type cell =
    | Subject_secrecy
    | Subject_integrity
    | Subject_caps
    | Object_labels
    | Dir_summary
    | Peer_labels
    | Peer_caps

  (* How a write combines with the cell's current value. [Merge] and
     [Retract] are the semilattice directions (join with / remove from
     the current tag set); [Assign] replaces wholesale. The
     commutativity judgment in lib/analysis keys on this. *)
  type write_kind = Merge | Assign | Retract

  type t = {
    op : string;  (** the dispatch/metric/audit name of the syscall *)
    reads : cell list;  (** label state inspected by the op *)
    writes : (cell * write_kind) list;  (** label state mutated *)
    depends : cell list;
        (** cells whose value the op's *action* safety rests on: a
            flow-check input whose change could invalidate the check *)
    revalidates : cell list;
        (** the subset of [depends] re-checked inside this same atomic
            dispatch — a dependency not revalidated is TOCTOU bait *)
    entry_preempt : bool;
        (** whether this op crosses [Kernel.preempt_point] at entry
            (probe-only ops do not) *)
  }

  let cell_name = function
    | Subject_secrecy -> "subject_secrecy"
    | Subject_integrity -> "subject_integrity"
    | Subject_caps -> "subject_caps"
    | Object_labels -> "object_labels"
    | Dir_summary -> "dir_summary"
    | Peer_labels -> "peer_labels"
    | Peer_caps -> "peer_caps"

  let write_kind_name = function
    | Merge -> "merge"
    | Assign -> "assign"
    | Retract -> "retract"

  (* Smart constructor: unless stated otherwise an op revalidates
     everything it depends on (all checks run inside the dispatch),
     and every dispatched op crosses the entry preemption point. *)
  let v ?(reads = []) ?(writes = []) ?(depends = []) ?revalidates
      ?(entry_preempt = true) op =
    let revalidates = Option.value revalidates ~default:depends in
    { op; reads; writes; depends; revalidates; entry_preempt }

  let label_absorb =
    v "label.absorb"
      ~reads:[ Subject_secrecy; Subject_integrity; Subject_caps ]
      ~writes:[ (Subject_secrecy, Merge); (Subject_integrity, Merge) ]
      ~depends:[ Subject_caps ]

  let tag_create = v "tag.create" ~writes:[ (Subject_caps, Merge) ]

  let label_set =
    v "label.set"
      ~reads:[ Subject_secrecy; Subject_integrity; Subject_caps ]
      ~writes:[ (Subject_secrecy, Assign); (Subject_integrity, Assign) ]
      ~depends:[ Subject_caps ]

  let label_taint =
    v "label.taint"
      ~reads:[ Subject_secrecy; Subject_integrity; Subject_caps ]
      ~writes:[ (Subject_secrecy, Merge) ]
      ~depends:[ Subject_caps ]

  let label_declassify =
    v "label.declassify" ~reads:[ Subject_caps ]
      ~writes:[ (Subject_secrecy, Retract) ]
      ~depends:[ Subject_caps ]

  let label_endorse =
    v "label.endorse" ~reads:[ Subject_caps ]
      ~writes:[ (Subject_integrity, Merge) ]
      ~depends:[ Subject_caps ]

  let label_drop_integrity =
    v "label.drop_integrity" ~writes:[ (Subject_integrity, Retract) ]

  let cap_grant =
    v "cap.grant"
      ~reads:[ Subject_secrecy; Subject_integrity; Subject_caps; Peer_labels ]
      ~writes:[ (Peer_caps, Merge) ]
      ~depends:[ Subject_caps; Peer_labels ]

  let cap_drop = v "cap.drop" ~writes:[ (Subject_caps, Retract) ]

  let fs_mkdir =
    v "fs.mkdir"
      ~reads:[ Subject_secrecy; Subject_integrity; Dir_summary ]
      ~writes:[ (Object_labels, Assign); (Dir_summary, Merge) ]
      ~depends:[ Dir_summary ]

  let fs_create =
    v "fs.create"
      ~reads:[ Subject_secrecy; Subject_integrity; Dir_summary ]
      ~writes:[ (Object_labels, Assign); (Dir_summary, Merge) ]
      ~depends:[ Dir_summary ]

  let fs_read =
    v "fs.read"
      ~reads:[ Subject_secrecy; Subject_integrity; Object_labels; Dir_summary ]
      ~depends:[ Object_labels; Dir_summary ]

  let fs_read_taint =
    v "fs.read_taint"
      ~reads:[ Subject_caps; Object_labels; Dir_summary ]
      ~writes:[ (Subject_secrecy, Merge); (Subject_integrity, Merge) ]
      ~depends:[ Subject_caps ]

  let fs_write =
    v "fs.write"
      ~reads:[ Subject_secrecy; Subject_integrity; Object_labels ]
      ~depends:[ Object_labels ]

  let fs_append =
    v "fs.append"
      ~reads:[ Subject_secrecy; Subject_integrity; Object_labels ]
      ~depends:[ Object_labels ]

  let fs_unlink =
    v "fs.unlink"
      ~reads:[ Subject_secrecy; Subject_integrity; Object_labels; Dir_summary ]
      ~writes:[ (Object_labels, Retract); (Dir_summary, Retract) ]
      ~depends:[ Object_labels; Dir_summary ]

  let fs_rename =
    v "fs.rename"
      ~reads:[ Subject_secrecy; Subject_integrity; Object_labels; Dir_summary ]
      ~writes:[ (Dir_summary, Retract); (Dir_summary, Merge) ]
      ~depends:[ Object_labels; Dir_summary ]

  let fs_relabel =
    v "fs.relabel"
      ~reads:[ Subject_secrecy; Subject_integrity; Subject_caps; Object_labels ]
      ~writes:[ (Object_labels, Assign) ]
      ~depends:[ Object_labels; Subject_caps ]

  let fs_readdir =
    v "fs.readdir"
      ~reads:[ Subject_secrecy; Subject_integrity; Dir_summary ]
      ~depends:[ Dir_summary ]

  let fs_stat = v "fs.stat" ~reads:[ Object_labels ]
  let fs_exists = v "fs.exists" ~reads:[ Dir_summary ] ~entry_preempt:false

  let ipc_send =
    v "ipc.send"
      ~reads:[ Subject_secrecy; Subject_integrity; Subject_caps; Peer_labels ]
      ~depends:[ Subject_caps; Peer_labels ]

  let ipc_recv =
    v "ipc.recv"
      ~reads:[ Subject_caps; Peer_labels ]
      ~writes:
        [ (Subject_secrecy, Merge);
          (Subject_integrity, Merge);
          (Subject_caps, Merge) ]
      ~depends:[ Subject_caps ]

  let proc_spawn =
    v "proc.spawn"
      ~reads:[ Subject_secrecy; Subject_integrity; Subject_caps ]
      ~writes:[ (Peer_labels, Assign); (Peer_caps, Assign) ]
      ~depends:[ Subject_caps ]

  let gate_invoke =
    v "gate.invoke"
      ~reads:[ Subject_caps; Peer_labels ]
      ~writes:[ (Subject_secrecy, Merge); (Subject_integrity, Merge) ]
      ~depends:[ Subject_caps ]

  let proc_respond =
    v "proc.respond"
      ~reads:[ Subject_secrecy; Subject_integrity ]
      ~depends:[ Subject_secrecy; Subject_integrity ]

  let proc_consume = v "proc.consume"
  let debug_note = v "debug.note"

  let all =
    [ label_absorb;
      tag_create;
      label_set;
      label_taint;
      label_declassify;
      label_endorse;
      label_drop_integrity;
      cap_grant;
      cap_drop;
      fs_mkdir;
      fs_create;
      fs_read;
      fs_read_taint;
      fs_write;
      fs_append;
      fs_unlink;
      fs_rename;
      fs_relabel;
      fs_readdir;
      fs_stat;
      fs_exists;
      ipc_send;
      ipc_recv;
      proc_spawn;
      gate_invoke;
      proc_respond;
      debug_note;
      proc_consume ]

  let find op = List.find_opt (fun s -> s.op = op) all
end

let pid (ctx : Kernel.ctx) = ctx.proc.Proc.pid
let my_labels (ctx : Kernel.ctx) = ctx.proc.Proc.labels
let my_caps (ctx : Kernel.ctx) = ctx.proc.Proc.caps
let my_owner (ctx : Kernel.ctx) = ctx.proc.Proc.owner
let usage (ctx : Kernel.ctx) kind = Resource.used ctx.proc.Proc.usage kind

(* Every syscall passes through [charge]; exceeding a limit raises and
   the kernel kills the process, so quotas cannot be probed safely. *)
let charge (ctx : Kernel.ctx) kind n =
  Metrics.inc (Kernel.meters ctx.kernel).Kernel.quota_units
    ~labels:[ ("kind", Resource.kind_to_string kind) ]
    ~by:n;
  match Resource.charge ctx.proc.Proc.usage ctx.proc.Proc.limits kind n with
  | Ok () -> ()
  | Error k -> raise (Kernel.Quota_kill k)

(* Syscall entry: [cpu] CPU units (one for a dispatched syscall), one
   clock tick, one telemetry count. [op] is the syscall name — a
   closed, low-cardinality set. *)
let enter ctx ~cpu op =
  charge ctx Resource.Cpu cpu;
  Kernel.advance_clock ctx.Kernel.kernel;
  Metrics.inc (Kernel.meters ctx.Kernel.kernel).Kernel.syscalls
    ~labels:[ ("op", op) ]

(* The exit half of [dispatch], on a return and on a raise alike: a
   killed process's partial syscall still consumed its ticks. *)
let leave kernel ~traced op t0 =
  let t1 = Kernel.tick kernel in
  Metrics.observe (Kernel.meters kernel).Kernel.syscall_ticks
    ~labels:[ ("op", op) ] (t1 - t0);
  if traced then Tracer.end_span (Kernel.tracer kernel) ~tick:t1

(* Bracket a syscall body: cross the scheduler's preemption point,
   enter, run, and observe the ticks it took in the kernel's per-op
   latency histogram — inside a trace span only when the tracer is on
   (e.g. under `w5 stats`). [t0] is read before [enter] advances the
   clock, so even the simplest syscall observes its own crossing;
   composite syscalls (gate invocations, tainting reads) observe every
   tick they drove. *)
let dispatch ctx (spec : Spec.t) f =
  let kernel = ctx.Kernel.kernel in
  let op = spec.Spec.op in
  (* Dispatch entry is the kernel-crossing boundary: the only point
     where a scheduler may preempt the running process. Whether an op
     crosses it is part of its declared footprint. *)
  if spec.Spec.entry_preempt then Kernel.preempt_point kernel ctx.Kernel.proc;
  let tracer = Kernel.tracer kernel in
  let traced = Tracer.enabled tracer in
  let t0 = Kernel.tick kernel in
  if traced then Tracer.start_span tracer ~tick:t0 ("sys." ^ op);
  match
    enter ctx ~cpu:1 op;
    f ()
  with
  | result ->
      leave kernel ~traced op t0;
      result
  | exception exn ->
      leave kernel ~traced op t0;
      raise exn

let enforcing (ctx : Kernel.ctx) = Kernel.enforcing ctx.kernel

let audit_flow ctx ~op ?(subject = Audit.No_subject) ~src ~dst decision =
  Kernel.record ctx.Kernel.kernel ~pid:(pid ctx)
    (Audit.Flow_checked { op; src; dst; decision; subject })

let decision_label = function Ok () -> "allow" | Error _ -> "deny"

let meter_flow ctx ~op ~(src : Flow.labels) decision =
  let meters = Kernel.meters ctx.Kernel.kernel in
  Metrics.inc meters.Kernel.flow_checks
    ~labels:[ ("op", op); ("decision", decision_label decision) ];
  Metrics.observe meters.Kernel.flow_check_src_size
    (Label.cardinal src.Flow.secrecy);
  let tracer = Kernel.tracer ctx.Kernel.kernel in
  if Tracer.enabled tracer then
    Tracer.event tracer ~tick:(Kernel.tick ctx.Kernel.kernel) "flow.check"
      ~fields:
        [ ("op", op);
          ("decision", decision_label decision);
          ("src_secrecy", string_of_int (Label.cardinal src.Flow.secrecy)) ]

(* Flow check helper: returns [Ok ()] when enforcement is off, records
   denials in the audit log together with the object the check guarded
   ([subject]) so a denial can later be traced to a concrete path or
   peer. *)
let check_flow ctx ~op ~subject ~src ~dst =
  if not (enforcing ctx) then Ok ()
  else
    let decision = Flow.check_flow src dst in
    meter_flow ctx ~op ~src decision;
    (match decision with
    | Ok () -> ()
    | Error _ -> audit_flow ctx ~op ~subject ~src ~dst decision);
    Result.map_error (fun d -> Os_error.Denied d) decision

(* Absorbing someone else's secrecy taint (a tainting read, an IPC
   receive, a gate response) is normally free, but *restricted* tags —
   read protection, §3.1 — require the [t+] capability before they may
   enter the caller's label. *)
(* [via] names the operation that caused the absorption and [subject]
   the object the taint came from; together they give the audit log
   the causal edge (file -> process, peer -> process) provenance
   reconstruction walks. *)
let absorb ctx ?(via = "absorb") ?(subject = Audit.No_subject)
    (incoming : Flow.labels) =
  let proc = ctx.Kernel.proc in
  let blocked =
    if not (enforcing ctx) then Label.empty
    else
      Label.filter
        (fun t ->
          Tag.restricted t
          && (not (Label.mem t proc.Proc.labels.Flow.secrecy))
          && not (Capability.Set.can_add t proc.Proc.caps))
        incoming.Flow.secrecy
  in
  if Label.is_empty blocked then begin
    if enforcing ctx then meter_flow ctx ~op:"absorb" ~src:incoming (Ok ());
    let added =
      Label.diff incoming.Flow.secrecy proc.Proc.labels.Flow.secrecy
    in
    proc.Proc.labels <- Flow.join proc.Proc.labels incoming;
    if not (Label.is_empty added) then
      Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
        (Audit.Tainted { op = via; subject; added });
    Ok ()
  end
  else begin
    meter_flow ctx ~op:"absorb" ~src:incoming
      (Error (Flow.Unauthorized_add blocked));
    audit_flow ctx ~op:"absorb" ~subject ~src:incoming ~dst:proc.Proc.labels
      (Error (Flow.Unauthorized_add blocked));
    Error (Os_error.Denied (Flow.Unauthorized_add blocked))
  end

(* {1 Tags and labels} *)

let absorb_labels ctx incoming =
  dispatch ctx Spec.label_absorb @@ fun () ->
  absorb ctx ~via:"label.absorb" incoming

let create_tag ctx ?name ?restricted kind =
  dispatch ctx Spec.tag_create @@ fun () ->
  let tag = Tag.fresh ?name ?restricted kind in
  ctx.Kernel.proc.Proc.caps <-
    Capability.Set.grant_dual tag ctx.Kernel.proc.Proc.caps;
  Ok tag

(* The platform's label-change conventions: secrecy may always grow
   and integrity may always shrink; the opposite directions require
   the matching capability. *)
let check_label_change_conv ~caps ~(old_labels : Flow.labels)
    ~(new_labels : Flow.labels) =
  let dropped_secrecy =
    Label.diff old_labels.Flow.secrecy new_labels.Flow.secrecy
  in
  let bad_drops =
    Label.filter
      (fun t -> not (Capability.Set.can_drop t caps))
      dropped_secrecy
  in
  if not (Label.is_empty bad_drops) then
    Error (Flow.Unauthorized_drop bad_drops)
  else
    let added_secrecy =
      Label.diff new_labels.Flow.secrecy old_labels.Flow.secrecy
    in
    let bad_secrecy_adds =
      Label.filter
        (fun t -> Tag.restricted t && not (Capability.Set.can_add t caps))
        added_secrecy
    in
    if not (Label.is_empty bad_secrecy_adds) then
      Error (Flow.Unauthorized_add bad_secrecy_adds)
    else
      let added_integrity =
        Label.diff new_labels.Flow.integrity old_labels.Flow.integrity
      in
      let bad_adds =
        Label.filter
          (fun t -> not (Capability.Set.can_add t caps))
          added_integrity
      in
      if not (Label.is_empty bad_adds) then
        Error (Flow.Unauthorized_add bad_adds)
      else Ok ()

let set_labels ctx new_labels =
  dispatch ctx Spec.label_set @@ fun () ->
  let proc = ctx.Kernel.proc in
  let decision =
    if not (enforcing ctx) then Ok ()
    else
      check_label_change_conv ~caps:proc.Proc.caps
        ~old_labels:proc.Proc.labels ~new_labels
  in
  Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
    (Audit.Label_changed
       { old_labels = proc.Proc.labels; new_labels; decision });
  match decision with
  | Error d -> Error (Os_error.Denied d)
  | Ok () ->
      proc.Proc.labels <- new_labels;
      Ok ()

let add_taint ctx taint =
  dispatch ctx Spec.label_taint @@ fun () ->
  (* self-tainting only raises secrecy; it says nothing about (and
     must not erode) the caller's integrity *)
  absorb ctx ~via:"label.taint"
    (Flow.make ~secrecy:taint
       ~integrity:ctx.Kernel.proc.Proc.labels.Flow.integrity ())

let declassify_self ctx ?(context = "self") tag =
  dispatch ctx Spec.label_declassify @@ fun () ->
  let proc = ctx.Kernel.proc in
  if enforcing ctx && not (Capability.Set.can_drop tag proc.Proc.caps) then
    Error (Os_error.Denied (Flow.Unauthorized_drop (Label.singleton tag)))
  else begin
    proc.Proc.labels <-
      {
        proc.Proc.labels with
        Flow.secrecy = Label.remove tag proc.Proc.labels.Flow.secrecy;
      };
    Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
      (Audit.Declassified { tag; context });
    Ok ()
  end

let endorse_self ctx tag =
  dispatch ctx Spec.label_endorse @@ fun () ->
  let proc = ctx.Kernel.proc in
  if enforcing ctx && not (Capability.Set.can_add tag proc.Proc.caps) then
    Error (Os_error.Denied (Flow.Unauthorized_add (Label.singleton tag)))
  else begin
    proc.Proc.labels <-
      {
        proc.Proc.labels with
        Flow.integrity = Label.add tag proc.Proc.labels.Flow.integrity;
      };
    Ok ()
  end

let drop_integrity ctx tag =
  dispatch ctx Spec.label_drop_integrity @@ fun () ->
  let proc = ctx.Kernel.proc in
  proc.Proc.labels <-
    {
      proc.Proc.labels with
      Flow.integrity = Label.remove tag proc.Proc.labels.Flow.integrity;
    };
  Ok ()

let grant_cap ctx ~to_ cap =
  dispatch ctx Spec.cap_grant @@ fun () ->
  let proc = ctx.Kernel.proc in
  if enforcing ctx && not (Capability.Set.mem cap proc.Proc.caps) then
    Error (Os_error.Permission "grant_cap: capability not owned")
  else
    match Kernel.find_proc ctx.Kernel.kernel to_ with
    | None -> Error (Os_error.No_such_process to_)
    | Some target -> (
        match
          check_flow ctx ~op:"cap.grant" ~subject:(Audit.Peer to_)
            ~src:proc.Proc.labels ~dst:target.Proc.labels
        with
        | Error _ as e -> e
        | Ok () ->
            target.Proc.caps <- Capability.Set.add cap target.Proc.caps;
            Ok ())

let drop_cap ctx cap =
  dispatch ctx Spec.cap_drop @@ fun () ->
  let proc = ctx.Kernel.proc in
  proc.Proc.caps <- Capability.Set.remove cap proc.Proc.caps;
  Ok ()

(* {1 Filesystem} *)

let fs ctx = Kernel.fs ctx.Kernel.kernel

let mkdir ctx path ~labels =
  dispatch ctx Spec.fs_mkdir @@ fun () ->
  charge ctx Resource.Files 1;
  let proc = ctx.Kernel.proc in
  match Fs.parent_labels (fs ctx) path with
  | Error _ as e -> e
  | Ok parent -> (
      match
        check_flow ctx ~op:"fs.mkdir" ~subject:(Audit.File path)
          ~src:proc.Proc.labels ~dst:parent
      with
      | Error _ as e -> e
      | Ok () -> (
          match
            check_flow ctx ~op:"fs.mkdir.labels" ~subject:(Audit.File path)
              ~src:proc.Proc.labels ~dst:labels
          with
          | Error _ as e -> e
          | Ok () -> (
              match Fs.mkdir (fs ctx) path ~labels with
              | Error _ as e -> e
              | Ok () ->
                  Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
                    (Audit.Object_labeled { op = "fs.mkdir"; path; labels });
                  Ok ())))

let create_file ctx path ~labels ~data =
  dispatch ctx Spec.fs_create @@ fun () ->
  charge ctx Resource.Files 1;
  charge ctx Resource.Disk (String.length data);
  let proc = ctx.Kernel.proc in
  match Fs.parent_labels (fs ctx) path with
  | Error _ as e -> e
  | Ok parent -> (
      match
        check_flow ctx ~op:"fs.create" ~subject:(Audit.File path)
          ~src:proc.Proc.labels ~dst:parent
      with
      | Error _ as e -> e
      | Ok () -> (
          match
            check_flow ctx ~op:"fs.create.labels" ~subject:(Audit.File path)
              ~src:proc.Proc.labels ~dst:labels
          with
          | Error _ as e -> e
          | Ok () -> (
              match Fs.create_file (fs ctx) path ~labels ~data with
              | Error _ as e -> e
              | Ok () ->
                  Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
                    (Audit.Object_labeled { op = "fs.create"; path; labels });
                  Ok ())))

let read_file ctx path =
  dispatch ctx Spec.fs_read @@ fun () ->
  let proc = ctx.Kernel.proc in
  match Fs.read (fs ctx) path with
  | Error _ as e -> e
  | Ok (data, labels) -> (
      match Fs.path_taint (fs ctx) path with
      | Error _ as e -> e
      | Ok lookup -> (
          (* Reading is a flow from the file to the process: secrecy
             accumulates the lookup path's taint; the integrity
             condition considers the file alone (directories do not
             vouch for their contents). A high-integrity process may
             not strict-read low-integrity data — it must taint-read
             (eroding its label) instead. *)
          let src = Flow.raise_secrecy lookup.Flow.secrecy labels in
          match
            check_flow ctx ~op:"fs.read" ~subject:(Audit.File path) ~src
              ~dst:proc.Proc.labels
          with
          | Error _ as e -> e
          | Ok () ->
              charge ctx Resource.Memory (String.length data);
              Ok data))

let read_file_taint ctx path =
  dispatch ctx Spec.fs_read_taint @@ fun () ->
  match Fs.read (fs ctx) path with
  | Error _ as e -> e
  | Ok (data, labels) -> (
      match Fs.path_taint (fs ctx) path with
      | Error _ as e -> e
      | Ok lookup -> (
          (* The lookup path adds secrecy but says nothing about
             integrity; only the file itself erodes the reader's
             integrity label. *)
          let incoming = Flow.raise_secrecy lookup.Flow.secrecy labels in
          match
            absorb ctx ~via:"fs.read_taint" ~subject:(Audit.File path)
              incoming
          with
          | Error _ as e -> e
          | Ok () ->
              charge ctx Resource.Memory (String.length data);
              Ok data))

let write_check ctx ~op path =
  let proc = ctx.Kernel.proc in
  match Fs.stat (fs ctx) path with
  | Error _ as e -> e
  | Ok st ->
      check_flow ctx ~op ~subject:(Audit.File path) ~src:proc.Proc.labels
        ~dst:st.Fs.labels

let write_file ctx path ~data =
  dispatch ctx Spec.fs_write @@ fun () ->
  charge ctx Resource.Disk (String.length data);
  match write_check ctx ~op:"fs.write" path with
  | Error _ as e -> e
  | Ok () -> Fs.write (fs ctx) path ~data

let append_file ctx path ~data =
  dispatch ctx Spec.fs_append @@ fun () ->
  charge ctx Resource.Disk (String.length data);
  match write_check ctx ~op:"fs.append" path with
  | Error _ as e -> e
  | Ok () -> Fs.append (fs ctx) path ~data

let unlink ctx path =
  dispatch ctx Spec.fs_unlink @@ fun () ->
  let proc = ctx.Kernel.proc in
  match Fs.parent_labels (fs ctx) path with
  | Error _ as e -> e
  | Ok parent -> (
      match
        check_flow ctx ~op:"fs.unlink.dir" ~subject:(Audit.File path)
          ~src:proc.Proc.labels ~dst:parent
      with
      | Error _ as e -> e
      | Ok () -> (
          (* Deleting is a write to the object itself: write
             protection (integrity) must authorize it. *)
          match write_check ctx ~op:"fs.unlink" path with
          | Error _ as e -> e
          | Ok () -> Fs.unlink (fs ctx) path))

let rename ctx ~src ~dst =
  dispatch ctx Spec.fs_rename @@ fun () ->
  let proc = ctx.Kernel.proc in
  let parent_check label path =
    match Fs.parent_labels (fs ctx) path with
    | Error _ as e -> e
    | Ok parent ->
        check_flow ctx ~op:label ~subject:(Audit.File path)
          ~src:proc.Proc.labels ~dst:parent
  in
  match parent_check "fs.rename.src" src with
  | Error _ as e -> e
  | Ok () -> (
      match parent_check "fs.rename.dst" dst with
      | Error _ as e -> e
      | Ok () -> (
          match write_check ctx ~op:"fs.rename" src with
          | Error _ as e -> e
          | Ok () -> Fs.rename (fs ctx) ~src ~dst))

let set_file_labels ctx path ~labels =
  dispatch ctx Spec.fs_relabel @@ fun () ->
  let proc = ctx.Kernel.proc in
  match Fs.stat (fs ctx) path with
  | Error _ as e -> e
  | Ok st -> (
      match
        check_flow ctx ~op:"fs.relabel" ~subject:(Audit.File path)
          ~src:proc.Proc.labels ~dst:st.Fs.labels
      with
      | Error _ as e -> e
      | Ok () ->
          let decision =
            if not (enforcing ctx) then Ok ()
            else
              check_label_change_conv ~caps:proc.Proc.caps
                ~old_labels:st.Fs.labels ~new_labels:labels
          in
          (match decision with
          | Ok () -> ()
          | Error _ ->
              Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
                (Audit.Label_changed
                   { old_labels = st.Fs.labels; new_labels = labels; decision }));
          (match decision with
          | Error d -> Error (Os_error.Denied d)
          | Ok () -> (
              match Fs.set_labels (fs ctx) path ~labels with
              | Error _ as e -> e
              | Ok () ->
                  Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
                    (Audit.Object_labeled { op = "fs.relabel"; path; labels });
                  Ok ())))

let readdir ctx path =
  dispatch ctx Spec.fs_readdir @@ fun () ->
  let proc = ctx.Kernel.proc in
  match Fs.readdir (fs ctx) path with
  | Error _ as e -> e
  | Ok (names, labels) -> (
      let src =
        { labels with Flow.integrity = proc.Proc.labels.Flow.integrity }
      in
      match
        check_flow ctx ~op:"fs.readdir" ~subject:(Audit.File path) ~src
          ~dst:proc.Proc.labels
      with
      | Error _ as e -> e
      | Ok () -> Ok names)

let stat ctx path =
  dispatch ctx Spec.fs_stat @@ fun () ->
  Fs.stat (fs ctx) path

let file_exists ctx path =
  (* probe only: charged but does not advance the logical clock, and —
     as Spec.fs_exists declares — never crosses the preemption point *)
  charge ctx Resource.Cpu 1;
  Metrics.inc (Kernel.meters ctx.Kernel.kernel).Kernel.syscalls
    ~labels:[ ("op", Spec.fs_exists.Spec.op) ];
  Fs.exists (fs ctx) path

(* {1 IPC} *)

let send ctx ~to_ ?(grant = Capability.Set.empty) ?(use_caps = false) body =
  dispatch ctx Spec.ipc_send @@ fun () ->
  charge ctx Resource.Messages 1;
  let proc = ctx.Kernel.proc in
  if
    enforcing ctx
    && not (Capability.Set.subset grant proc.Proc.caps)
  then Error (Os_error.Permission "send: granted capability not owned")
  else
    match Kernel.find_proc ctx.Kernel.kernel to_ with
    | None -> Error (Os_error.No_such_process to_)
    | Some target -> (
        (* A capability-exercising endpoint sheds every secrecy tag the
           sender holds [t-] for: the message leaves declassified. *)
        let declassified, effective_labels =
          if use_caps then begin
            let droppable =
              Label.filter
                (fun t -> Capability.Set.can_drop t proc.Proc.caps)
                proc.Proc.labels.Flow.secrecy
            in
            ( droppable,
              {
                proc.Proc.labels with
                Flow.secrecy = Label.diff proc.Proc.labels.Flow.secrecy droppable;
              } )
          end
          else (Label.empty, proc.Proc.labels)
        in
        match
          check_flow ctx ~op:"ipc.send" ~subject:(Audit.Peer to_)
            ~src:effective_labels ~dst:target.Proc.labels
        with
        | Error _ as e -> e
        | Ok () ->
            Label.iter
              (fun tag ->
                Kernel.record ctx.Kernel.kernel ~pid:proc.Proc.pid
                  (Audit.Declassified { tag; context = "ipc.send" }))
              declassified;
            Queue.add
              {
                Proc.sender = proc.Proc.pid;
                msg_labels = effective_labels;
                body;
                granted = grant;
              }
              target.Proc.mailbox;
            Ok ())

let recv ctx =
  dispatch ctx Spec.ipc_recv @@ fun () ->
  let proc = ctx.Kernel.proc in
  match Queue.take_opt proc.Proc.mailbox with
  | None -> Ok None
  | Some msg -> (
      (* A message the receiver may not absorb is dropped, not
         re-queued: a blocked head must not wedge the mailbox. *)
      match
        absorb ctx ~via:"ipc.recv" ~subject:(Audit.Peer msg.Proc.sender)
          msg.Proc.msg_labels
      with
      | Error _ as e -> e
      | Ok () ->
          charge ctx Resource.Memory (String.length msg.Proc.body);
          proc.Proc.caps <- Capability.Set.union proc.Proc.caps msg.Proc.granted;
          Ok (Some msg))

(* {1 Processes and gates} *)

let spawn ctx ~name ?labels ?(caps = Capability.Set.empty)
    ?(limits = Resource.default_app_limits) body =
  dispatch ctx Spec.proc_spawn @@ fun () ->
  let proc = ctx.Kernel.proc in
  let labels = Option.value labels ~default:proc.Proc.labels in
  Kernel.spawn ctx.Kernel.kernel ~parent:proc ~name ~owner:proc.Proc.owner
    ~labels ~caps ~limits body

let invoke_gate ctx name ~arg =
  dispatch ctx Spec.gate_invoke @@ fun () ->
  let proc = ctx.Kernel.proc in
  match Kernel.invoke_gate ctx.Kernel.kernel ~caller:proc ~name ~arg with
  | Error _ as e -> e
  | Ok child -> (
      match child.Proc.response with
      | None -> Ok None
      | Some (data, labels) -> (
          (* The answer flows back: absorb its secrecy taint. *)
          match
            absorb ctx ~via:"gate.invoke"
              ~subject:(Audit.Peer child.Proc.pid) labels
          with
          | Error _ as e -> e
          | Ok () ->
              charge ctx Resource.Memory (String.length data);
              Ok (Some (data, labels))))

let respond ctx data =
  dispatch ctx Spec.proc_respond @@ fun () ->
  charge ctx Resource.Memory (String.length data);
  let proc = ctx.Kernel.proc in
  proc.Proc.response <- Some (data, proc.Proc.labels);
  Ok ()

let consume ctx ~cpu =
  (* a quota charge without a dispatched body: still a declared
     preemption point (Spec.proc_consume.entry_preempt) *)
  if Spec.proc_consume.Spec.entry_preempt then
    Kernel.preempt_point ctx.Kernel.kernel ctx.Kernel.proc;
  enter ctx ~cpu Spec.proc_consume.Spec.op;
  Ok ()

let debug_note ctx note =
  dispatch ctx Spec.debug_note @@ fun () ->
  Kernel.record ctx.Kernel.kernel ~pid:(pid ctx) (Audit.App_note note);
  Ok ()
