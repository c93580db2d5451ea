open W5_difc
open W5_os
open W5_store
open W5_platform
module Fault = W5_fault.Fault

type side = {
  platform : Platform.t;
  provider_name : string;
}

(* One side as the link holds it: the provider, its name, and the
   user's account there. [establish] looks each account up once; an
   account changes in place (grants, read protection) and is never
   replaced, so the reference stays current. *)
type replica = {
  provider : Platform.t;
  name : string;
  account : Account.t;
}

type link = {
  a : replica;  (* home: its kernel owns the round's telemetry *)
  b : replica;
  mutable sync_files : string list;
  mutable sync_dirs : string list;
  seen : (string, Vector_clock.t) Hashtbl.t;
  mutable seen_dirty : bool;
  mutable faults : Fault.t;
}

type stats = {
  a_to_b : int;
  b_to_a : int;
  merged : int;
  unchanged : int;
  retried : int;
  timed_out : int;
  recovered : int;
  faulted : int;
}

(* Per-round mutable tallies threaded through the per-file logic. *)
type counters = {
  mutable c_retried : int;
  mutable c_timed_out : int;
  mutable c_faulted : int;
}

(* The delivery policy: at most [max_attempts] deliveries per message,
   a backoff of 2^(attempt-1) logical ticks capped at [backoff_cap],
   and at most [round_budget] ticks of backoff plus injected delay per
   round (the link timeout). *)
let max_attempts = 4
let backoff_cap = 8
let round_budget = 64

(* Durable link state lives in a dot-directory of the user's home on
   the relevant side, written with the user's own authority so it
   carries the user's labels like any other record. It is never part
   of the sync worklist (only [sync_files] and [sync_dirs] expansions
   are). *)
let state_dir = ".sync"
let seen_file ~peer = state_dir ^ "/seen-" ^ peer
let intent_file ~peer = state_dir ^ "/intent-from-" ^ peer

(* The tags a transfer agent handles for the owner: the account's
   secrecy tag and, if it has one, its restricted read tag. *)
let owner_tags (account : Account.t) =
  account.Account.secret_tag
  :: (match account.Account.read_tag with Some rt -> [ rt ] | None -> [])

(* The privileges the user "gives to the data transfer application":
   declassification over their secrecy tags (and absorption for the
   restricted read tag). Only capabilities the account actually holds
   can be passed on — a user who stripped their own grants transfers
   nothing. Write authority is exercised separately via
   Platform.write_user_record. *)
let transfer_caps (account : Account.t) =
  List.fold_left
    (fun caps tag ->
      let caps =
        if Capability.Set.can_drop tag account.Account.caps then
          Capability.Set.add (Capability.make tag Capability.Minus) caps
        else caps
      in
      if Capability.Set.can_add tag account.Account.caps then
        Capability.Set.add (Capability.make tag Capability.Plus) caps
      else caps)
    Capability.Set.empty (owner_tags account)

(* The agent only hands data off the platform once its label is
   provably exportable: shed each owner tag it holds the grant for,
   then refuse if any secrecy is left. *)
let declassify_for_export ctx (account : Account.t) ~context =
  List.iter
    (fun tag -> ignore (Syscall.declassify_self ctx ~context tag))
    (owner_tags account);
  let residue = (Syscall.my_labels ctx).Flow.secrecy in
  if Label.is_empty residue then Ok ()
  else Error (Os_error.Denied (Flow.Secrecy_violation residue))

let export_record platform (account : Account.t) ~file =
  let path = Platform.user_file account.Account.user file in
  Platform.with_ctx platform
    ~name:("sync.export:" ^ path)
    ~caps:(transfer_caps account)
    (fun ctx ->
      match Syscall.stat ctx path with
      | Error _ as e -> e
      | Ok st -> (
          match Syscall.read_file_taint ctx path with
          | Error _ as e -> e
          | Ok data -> (
              match
                declassify_for_export ctx account ~context:"federation.sync"
              with
              | Error _ as e -> e
              | Ok () -> (
                  match Record.decode data with
                  | Error m -> Error (Os_error.Invalid m)
                  | Ok record -> Ok (record, st.Fs.version)))))

let version_of r ~file =
  let path = Platform.user_file r.account.Account.user file in
  match
    Platform.with_ctx r.provider ~name:("sync.stat:" ^ path) (fun ctx ->
        Syscall.stat ctx path)
  with
  | Ok st -> st.Fs.version
  | Error _ -> 0

(* ---- durable seen clocks --------------------------------------------- *)

let load_seen seen r ~peer =
  match Platform.read_user_record r.provider r.account ~file:(seen_file ~peer) with
  | Error _ -> ()
  | Ok record ->
      List.iter
        (fun (file, encoded) ->
          let clock = Vector_clock.decode encoded in
          if not (Vector_clock.equal clock Vector_clock.zero) then
            Hashtbl.replace seen file clock)
        (Record.fields record)

let persist_seen link =
  let a = link.a in
  ignore (Platform.user_mkdir a.provider a.account ~dir:state_dir);
  let fields =
    Hashtbl.fold
      (fun file clock acc -> (file, Vector_clock.encode clock) :: acc)
      link.seen []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  ignore
    (Platform.write_user_record a.provider a.account
       ~file:(seen_file ~peer:link.b.name)
       (Record.of_fields fields))

let establish ?(faults = Fault.none ()) ~a ~b ~user ~files () =
  match (Platform.find_account a.platform user, Platform.find_account b.platform user) with
  | None, _ -> Error (user ^ ": no account on " ^ a.provider_name)
  | _, None -> Error (user ^ ": no account on " ^ b.provider_name)
  | Some account_a, Some account_b ->
      let replica (s : side) account =
        { provider = s.platform; name = s.provider_name; account }
      in
      let a = replica a account_a and b = replica b account_b in
      let seen = Hashtbl.create 16 in
      (* a restarted agent resumes from the durable clocks: deletions
         keep propagating, re-applied writes stay no-ops *)
      load_seen seen a ~peer:b.name;
      Ok
        { a; b; sync_files = files; sync_dirs = []; seen; seen_dirty = false;
          faults }

let set_faults link plan = link.faults <- plan
let faults link = link.faults

let add_file link file =
  if not (List.mem file link.sync_files) then
    link.sync_files <- link.sync_files @ [ file ]

let add_directory link dir =
  if not (List.mem dir link.sync_dirs) then
    link.sync_dirs <- link.sync_dirs @ [ dir ]

let directories link = link.sync_dirs
let files link = link.sync_files
let user link = link.a.account.Account.user

(* Entries of /users/<u>/<dir> on one side, [] if absent. *)
let dir_entries r ~dir =
  let path = Platform.user_file r.account.Account.user dir in
  match
    Platform.with_ctx r.provider ~name:("sync.ls:" ^ path)
      ~caps:(transfer_caps r.account) (fun ctx ->
        match Syscall.stat ctx path with
        | Error _ as e -> e
        | Ok st -> (
            match
              Syscall.add_taint ctx st.Fs.labels.Flow.secrecy
            with
            | Error _ as e -> e
            | Ok () -> Syscall.readdir ctx path))
  with
  | Ok names -> names
  | Error _ -> []

(* Importing "photos/p1" needs "photos" to exist on the target. *)
let ensure_parent_dir r ~file =
  match String.index_opt file '/' with
  | None -> Ok ()
  | Some i -> (
      let dir = String.sub file 0 i in
      match Platform.user_mkdir r.provider r.account ~dir with
      | Ok () -> Ok ()
      | Error (Os_error.Already_exists _) -> Ok ()
      | Error _ as e -> e)

let current_clock link ~file =
  Vector_clock.set
    (Vector_clock.set Vector_clock.zero ~node:link.a.name
       (version_of link.a ~file))
    ~node:link.b.name
    (version_of link.b ~file)

let seen_clock link ~file =
  Option.value (Hashtbl.find_opt link.seen file) ~default:Vector_clock.zero

(* ---- fault plumbing -------------------------------------------------- *)

(* Telemetry and audit for faults land on side A's kernel: the link
   runs as an agent of that platform (see [meter_round]). *)
let home_kernel link = Platform.kernel link.a.provider
let home_tracer link = Kernel.tracer (home_kernel link)
let home_tick link = Kernel.tick (home_kernel link)

let sides link =
  let side r = { platform = r.provider; provider_name = r.name } in
  (side link.a, side link.b)

let note_fault link ~file ~action ~attempt =
  Kernel.record (home_kernel link) ~pid:0
    (Audit.Sync_fault
       {
         path = Platform.user_file (user link) file;
         action = Fault.action_name action;
         attempt;
       });
  W5_obs.Metrics.inc
    (W5_obs.Metrics.counter
       (Kernel.metrics (home_kernel link))
       "w5_sync_faults_total"
       ~help:"Federation transport faults hit (injected or observed)")
    ~labels:
      [
        ("action", Fault.action_name action);
        ("peer", link.b.name);
      ];
  W5_obs.Tracer.event (home_tracer link) ~tick:(home_tick link) "sync.fault"
    ~fields:
      [
        ("action", Fault.action_name action);
        ("attempt", string_of_int attempt);
        ("file", file);
      ]

(* Bracket a delivery leg in a span on the kernel that executes it: a
   plain child span when that kernel is the link's home side, a remote
   continuation carrying the handoff {!W5_obs.Trace_context} when it
   is the peer — the breadcrumb Trace_merge later reattaches. *)
let traced link r ~op ~file f =
  let home = home_kernel link in
  let k = Platform.kernel r.provider in
  let fields = [ ("op", op); ("file", file) ] in
  if k == home then
    W5_obs.Tracer.with_span (Kernel.tracer k)
      ~clock:(fun () -> Kernel.tick k)
      ~fields ("sync." ^ op) f
  else
    W5_obs.Tracer.handoff (Kernel.tracer home) ~origin:link.a.name
      ~tick:(Kernel.tick home) ~into:(Kernel.tracer k)
      ~clock:(fun () -> Kernel.tick k)
      ~fields ("sync." ^ op) f

(* Backoff and delay are logical ticks on both kernels — no wall
   clock anywhere, so a faulty run replays identically from its
   seed. *)
let advance_ticks link n =
  for _ = 1 to n do
    Kernel.advance_clock (Platform.kernel link.a.provider);
    Kernel.advance_clock (Platform.kernel link.b.provider)
  done

(* One fault-aware delivery leg. Consults the plan at [op]:[file];
   dropped deliveries retry with capped exponential backoff until
   [max_attempts] or the round's tick budget runs out; a delay that
   exceeds the budget abandons the delivery for this round (the link
   timeout). Crashes are the caller's business — they must persist a
   write-ahead intent first — so they are surfaced, not raised here.
   [run ~dup] performs the real operation ([dup] = deliver twice). *)
let deliver link ~counters ~budget ~op ~file
    (run :
      dup:bool ->
      crash:[ `No | `Before | `After ] ->
      ('a, string) result) : [ `Done of ('a, string) result | `Timed_out ] =
  let timed_out () =
    counters.c_timed_out <- counters.c_timed_out + 1;
    W5_obs.Tracer.event (home_tracer link) ~tick:(home_tick link)
      "sync.timeout"
      ~fields:[ ("op", op); ("file", file) ];
    `Timed_out
  in
  let rec go attempt =
    if attempt > max_attempts then timed_out ()
    else
      match Fault.consult link.faults ~op ~file with
      | None -> `Done (run ~dup:false ~crash:`No)
      | Some action -> (
          note_fault link ~file ~action ~attempt;
          counters.c_faulted <- counters.c_faulted + 1;
          match action with
          | Fault.Drop ->
              let pause = min backoff_cap (1 lsl (attempt - 1)) in
              if !budget < pause then timed_out ()
              else begin
                budget := !budget - pause;
                advance_ticks link pause;
                counters.c_retried <- counters.c_retried + 1;
                W5_obs.Tracer.event (home_tracer link) ~tick:(home_tick link)
                  "sync.retry"
                  ~fields:
                    [
                      ("attempt", string_of_int (attempt + 1));
                      ("backoff", string_of_int pause);
                      ("file", file);
                    ];
                go (attempt + 1)
              end
          | Fault.Delay n ->
              if !budget < n then timed_out ()
              else begin
                budget := !budget - n;
                advance_ticks link n;
                `Done (run ~dup:false ~crash:`No)
              end
          | Fault.Duplicate -> `Done (run ~dup:true ~crash:`No)
          | Fault.Crash_before_apply -> `Done (run ~dup:false ~crash:`Before)
          | Fault.Crash_after_apply -> `Done (run ~dup:false ~crash:`After))
  in
  go 1

(* Sequence delivery legs: a leg that timed out or failed ends the
   file's turn this round. *)
let ( let* ) leg k =
  match leg with
  | `Timed_out -> Ok `Timed_out
  | `Done (Error e) -> Error e
  | `Done (Ok v) -> k v

(* ---- write-ahead intents --------------------------------------------- *)

let write_intent r ~peer ~file ~phase record =
  ignore (Platform.user_mkdir r.provider r.account ~dir:state_dir);
  ignore
    (Platform.write_user_record r.provider r.account ~file:(intent_file ~peer)
       (Record.of_fields
          [
            ("file", file);
            ("peer", peer);
            ("phase", phase);
            ("payload", Record.encode record);
          ]))

let clear_intent r ~peer =
  ignore (Platform.delete_user_file r.provider r.account ~file:(intent_file ~peer))

(* Replay one side's pending intent, if any: complete the write the
   crash interrupted (phase "pending") or just finish the bookkeeping
   (phase "applied"), then clear the intent. The regular diff pass
   afterwards sees content-equal replicas and moves on without a
   duplicate merge. *)
let recover_side r ~peer =
  match Platform.read_user_record r.provider r.account ~file:(intent_file ~peer) with
  | Error _ -> 0
  | Ok intent ->
      let file = Record.get_or intent "file" ~default:"" in
      let phase = Record.get_or intent "phase" ~default:"pending" in
      let recovered =
        if file = "" then 0
        else begin
          (if phase = "pending" then
             match Option.map Record.decode (Record.get intent "payload") with
             | Some (Ok payload) ->
                 let already =
                   match Platform.read_user_record r.provider r.account ~file with
                   | Ok existing -> Record.equal existing payload
                   | Error _ -> false
                 in
                 if not already then begin
                   ignore (ensure_parent_dir r ~file);
                   ignore
                     (Platform.write_user_record r.provider r.account ~file
                        payload)
                 end
             | Some (Error _) | None -> ());
          Kernel.record (Platform.kernel r.provider) ~pid:0
            (Audit.Sync_recovered
               {
                 peer;
                 path = Platform.user_file r.account.Account.user file;
                 phase;
               });
          1
        end
      in
      clear_intent r ~peer;
      recovered

let recover link =
  let n =
    recover_side link.a ~peer:link.b.name
    + recover_side link.b ~peer:link.a.name
  in
  if n > 0 then begin
    W5_obs.Metrics.inc
      (W5_obs.Metrics.counter
         (Kernel.metrics (home_kernel link))
         "w5_sync_recoveries_total"
         ~help:"Write-ahead sync intents replayed after a crash")
      ~labels:[ ("peer", link.b.name) ]
      ~by:n;
    W5_obs.Tracer.event (home_tracer link) ~tick:(home_tick link)
      "sync.recover"
      ~fields:[ ("intents", string_of_int n) ]
  end;
  n

(* ---- the per-file synchronization ------------------------------------ *)

let sync_file link ~counters ~budget ~file =
  let a = link.a and b = link.b in
  let current = current_clock link ~file in
  let seen = seen_clock link ~file in
  (* What happened on one side since the link last saw the file. A side
     that held it and now has none deleted it (it did not "never have
     it"). Versions and clock entries are never negative, so a side
     that changed holds the file. *)
  let change r =
    let now = Vector_clock.get current ~node:r.name in
    let before = Vector_clock.get seen ~node:r.name in
    if now > before then `Changed
    else if now = 0 && before > 0 then `Deleted
    else `Same
  in
  let remember () =
    Hashtbl.replace link.seen file (current_clock link ~file);
    link.seen_dirty <- true
  in
  let audit_sync ~on ~peer ~direction =
    Kernel.record (Platform.kernel on.provider) ~pid:0
      (Audit.Sync_applied
         {
           peer = peer.name;
           path = Platform.user_file on.account.Account.user file;
           direction;
         })
  in
  (* Fault-aware export leg: the request can be dropped (retried) or
     crash the exporting provider — nothing durable is in flight yet,
     so a crash here needs no intent. *)
  let export_leg r =
    deliver link ~counters ~budget ~op:"export" ~file
      (fun ~dup:_ ~crash ->
        traced link r ~op:"export" ~file (fun () ->
            if crash <> `No then raise (Fault.Crashed ("export:" ^ file));
            Result.map_error Os_error.to_string
              (export_record r.provider r.account ~file)))
  in
  (* Fault-aware apply leg with the write-ahead protocol: intent
     before the write, cleared after; the two crash points leave the
     intent at the phase recovery needs to see. [dup] delivers the
     write twice — the second delivery is a no-op because the bytes
     already match. *)
  let apply_leg ~dst ~src record =
    deliver link ~counters ~budget ~op:"apply" ~file
      (fun ~dup ~crash ->
        traced link dst ~op:"apply" ~file @@ fun () ->
        let do_write () =
          Result.map_error Os_error.to_string
            (match ensure_parent_dir dst ~file with
            | Error _ as e -> e
            | Ok () ->
                Platform.write_user_record dst.provider dst.account ~file
                  record)
        in
        match crash with
        | `Before ->
            write_intent dst ~peer:src.name ~file ~phase:"pending" record;
            raise (Fault.Crashed ("apply:" ^ file))
        | `After ->
            write_intent dst ~peer:src.name ~file ~phase:"pending" record;
            (match do_write () with
            | Ok () ->
                write_intent dst ~peer:src.name ~file ~phase:"applied" record
            | Error _ -> ());
            raise (Fault.Crashed ("apply:" ^ file))
        | `No -> (
            write_intent dst ~peer:src.name ~file ~phase:"pending" record;
            match do_write () with
            | Error _ as e ->
                clear_intent dst ~peer:src.name;
                e
            | Ok () ->
                (* duplicate delivery: apply again; idempotent because
                   the destination already holds these bytes (the
                   rewrite is skipped, its version does not move) *)
                (if dup then
                   match
                     Platform.read_user_record dst.provider dst.account ~file
                   with
                   | Ok existing when Record.equal existing record -> ()
                   | Ok _ | Error _ -> ignore (do_write ()));
                clear_intent dst ~peer:src.name;
                Ok ()))
  in
  let copy ~src ~dst direction =
    let* record, _ = export_leg src in
    (* Skip the write when the destination already matches: a rewrite
       would bump its version and look like a fresh edit to every
       *other* link of a mesh, ping-ponging forever. *)
    let already_there =
      match export_record dst.provider dst.account ~file with
      | Ok (existing, _) -> Record.equal existing record
      | Error _ -> false
    in
    if already_there then begin
      remember ();
      Ok `Unchanged
    end
    else
      let* () = apply_leg ~dst ~src record in
      audit_sync ~on:dst ~peer:src ~direction:"pull";
      audit_sync ~on:src ~peer:dst ~direction:"push";
      remember ();
      Ok direction
  in
  (* Deletions are idempotent messages: deleting an already-absent
     file acknowledges fine, so crash-rerun and duplicate delivery
     need no intent record. *)
  let delete_on r direction =
    let* () =
      deliver link ~counters ~budget ~op:"delete" ~file
        (fun ~dup ~crash ->
          traced link r ~op:"delete" ~file @@ fun () ->
          if crash <> `No then raise (Fault.Crashed ("delete:" ^ file));
          let unlink () =
            match Platform.delete_user_file r.provider r.account ~file with
            | Ok () | Error (Os_error.Not_found _) -> Ok ()
            | Error e -> Error (Os_error.to_string e)
          in
          match unlink () with
          | Error _ as e -> e
          | Ok () ->
              if dup then ignore (unlink ());
              remember ();
              Ok ())
    in
    Ok direction
  in
  match (change a, change b) with
  | `Same, `Same -> Ok `Unchanged
  | `Deleted, `Deleted ->
      remember ();
      Ok `Unchanged
  (* an edit beats a concurrent delete: the file comes back *)
  | `Changed, (`Same | `Deleted) -> copy ~src:a ~dst:b `A_to_b
  | (`Same | `Deleted), `Changed -> copy ~src:b ~dst:a `B_to_a
  | `Deleted, `Same -> delete_on b `A_to_b
  | `Same, `Deleted -> delete_on a `B_to_a
  | `Changed, `Changed ->
      (* concurrent edits: merge and write back to both replicas, each
         apply its own fault-aware delivery *)
      let* ra, _ = export_leg a in
      let* rb, _ = export_leg b in
      if Record.equal ra rb then begin
        remember ();
        Ok `Unchanged
      end
      else
        let merged = Conflict.merge ra rb in
        let* () = apply_leg ~dst:a ~src:b merged in
        let* () = apply_leg ~dst:b ~src:a merged in
        audit_sync ~on:a ~peer:b ~direction:"merge";
        audit_sync ~on:b ~peer:a ~direction:"merge";
        remember ();
        Ok `Merged

let expanded_files link =
  let from_dirs =
    List.concat_map
      (fun dir ->
        let names =
          List.sort_uniq String.compare
            (dir_entries link.a ~dir @ dir_entries link.b ~dir)
        in
        List.map (fun name -> dir ^ "/" ^ name) names)
      link.sync_dirs
  in
  (* dedupe, first occurrence wins: a file named in [sync_files] that
     also appears under a [sync_dirs] expansion must be worked once,
     or the round's stats double-count it *)
  let worked = Hashtbl.create 16 in
  List.filter
    (fun file ->
      if Hashtbl.mem worked file then false
      else begin
        Hashtbl.add worked file ();
        true
      end)
    (link.sync_files @ from_dirs)

(* Sync telemetry lands on side A's kernel registry: the link runs as
   an agent of that platform, and a one-sided home avoids double
   counting. Outcomes are direction/verdict names only. *)
(* Every sync counter carries the peer's provider name: a mesh home
   kernel runs one link per peer, and an unlabeled total cannot say
   *which* peer is dropping messages. Provider names are a closed set
   well under the registry cardinality cap. *)
let meter_round link stats =
  let metrics = Kernel.metrics (home_kernel link) in
  let peer = ("peer", link.b.name) in
  W5_obs.Metrics.inc
    (W5_obs.Metrics.counter metrics "w5_sync_rounds_total"
       ~help:"Completed federation sync rounds")
    ~labels:[ peer ];
  let outcomes = W5_obs.Metrics.counter metrics "w5_sync_outcomes_total"
      ~help:"Per-file sync outcomes by direction or merge"
  in
  let bump outcome by =
    if by > 0 then
      W5_obs.Metrics.inc outcomes ~labels:[ ("outcome", outcome); peer ] ~by
  in
  bump "a_to_b" stats.a_to_b;
  bump "b_to_a" stats.b_to_a;
  bump "merged" stats.merged;
  bump "unchanged" stats.unchanged;
  bump "timed_out" stats.timed_out;
  if stats.retried > 0 then
    W5_obs.Metrics.inc
      (W5_obs.Metrics.counter metrics "w5_sync_retries_total"
         ~help:"Delivery retries after dropped federation messages")
      ~labels:[ peer ] ~by:stats.retried

let meter_crash link =
  W5_obs.Metrics.inc
    (W5_obs.Metrics.counter
       (Kernel.metrics (home_kernel link))
       "w5_sync_crashes_total"
       ~help:"Sync rounds aborted by a provider crash")
    ~labels:[ ("peer", link.b.name) ]

(* Round latency in side A's logical ticks: retries, backoff pauses,
   and per-file kernel crossings all drive that clock, so a faulty
   round is visibly slower than a clean one. Labeled by outcome (a
   closed set) so crashed rounds don't skew the happy-path quantiles. *)
let observe_round_ticks link ~t0 ~outcome =
  W5_obs.Metrics.observe
    (W5_obs.Perf.latency
       (Kernel.metrics (home_kernel link))
       "w5_sync_round_ticks"
       ~help:"Logical ticks consumed per federation sync round, by outcome")
    ~labels:[ ("outcome", outcome) ]
    (Kernel.tick (home_kernel link) - t0)

let sync_body link =
  let t0 = Kernel.tick (home_kernel link) in
  (* crash-restart recovery first: replay any write-ahead intent a
     previous round left behind *)
  let recovered = recover link in
  let counters = { c_retried = 0; c_timed_out = 0; c_faulted = 0 } in
  let budget = ref round_budget in
  let tracer = home_tracer link in
  let result =
    try
      List.fold_left
        (fun acc file ->
          match acc with
          | Error _ as e -> e
          | Ok stats -> (
              match
                W5_obs.Tracer.with_span tracer
                  ~clock:(fun () -> home_tick link)
                  ~fields:[ ("file", file) ]
                  "sync.file"
                  (fun () -> sync_file link ~counters ~budget ~file)
              with
              | Error e -> Error (file ^ ": " ^ e)
              | Ok `Unchanged -> Ok { stats with unchanged = stats.unchanged + 1 }
              | Ok `A_to_b -> Ok { stats with a_to_b = stats.a_to_b + 1 }
              | Ok `B_to_a -> Ok { stats with b_to_a = stats.b_to_a + 1 }
              | Ok `Merged -> Ok { stats with merged = stats.merged + 1 }
              | Ok `Timed_out ->
                  Ok { stats with timed_out = stats.timed_out + 1 }))
        (Ok
           {
             a_to_b = 0;
             b_to_a = 0;
             merged = 0;
             unchanged = 0;
             retried = 0;
             timed_out = 0;
             recovered;
             faulted = 0;
           })
        (expanded_files link)
    with Fault.Crashed site ->
      meter_crash link;
      Error ("crash: " ^ site)
  in
  match result with
  | Ok stats ->
      let stats =
        { stats with retried = counters.c_retried;
          timed_out = counters.c_timed_out;
          faulted = counters.c_faulted }
      in
      meter_round link stats;
      observe_round_ticks link ~t0 ~outcome:"ok";
      (* refresh the durable clocks only when something moved them *)
      if link.seen_dirty then begin
        persist_seen link;
        link.seen_dirty <- false
      end;
      Ok stats
  | Error _ as e ->
      observe_round_ticks link ~t0 ~outcome:"error";
      e

let sync link =
  let tracer = home_tracer link in
  W5_obs.Tracer.with_span tracer
    ~clock:(fun () -> home_tick link)
    ~fields:[ ("peer", link.b.name) ]
    "sync.round"
    (fun () ->
      let result = sync_body link in
      W5_obs.Tracer.annotate tracer
        [ ("outcome", match result with Ok _ -> "ok" | Error _ -> "error") ];
      result)

(* How far the durable seen clocks trail the replicas right now:
   version steps acknowledged by neither side's last round — 0 once a
   clean round has converged, growing while faults keep a peer from
   acknowledging. *)
let lag link =
  List.fold_left
    (fun acc file ->
      let current = current_clock link ~file in
      let seen = seen_clock link ~file in
      let step node =
        max 0 (Vector_clock.get current ~node - Vector_clock.get seen ~node)
      in
      acc + step link.a.name + step link.b.name)
    0 (expanded_files link)

let converged link =
  List.for_all
    (fun file ->
      match
        ( export_record link.a.provider link.a.account ~file,
          export_record link.b.provider link.b.account ~file )
      with
      | Ok (ra, _), Ok (rb, _) -> Record.equal ra rb
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)
    (expanded_files link)
