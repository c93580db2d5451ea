open W5_difc
module Dot = W5_obs.Dot

type node = Process of int | Object of string | Remote of string

type edge = {
  kind : string;
  src : node;
  dst : node;
  seq : int;
  tick : int;
  tags : string list;
  denied : string option;
  detail : string option;
}

let tag_names label = List.map Tag.name (Label.to_list label)

let denial_tags (d : Flow.denial) =
  match d with
  | Flow.Secrecy_violation l
  | Flow.Integrity_violation l
  | Flow.Unauthorized_add l
  | Flow.Unauthorized_drop l ->
      l

let denied = function
  | Ok () -> None
  | Error d -> Some (Flow.denial_to_string d)

let subject_node pid (s : Audit.subject) =
  match s with
  | Audit.No_subject -> Process pid
  | Audit.File path -> Object path
  | Audit.Peer peer -> Process peer
  | Audit.Gate _ -> Process pid

(* Which way data moved through a checked operation: reads and
   absorptions pull the subject's taint into the process; writes,
   sends and grants push the process's taint at the subject. *)
let inbound_op op =
  match op with
  | "fs.read" | "fs.readdir" | "absorb" -> true
  | _ -> false

let edge_of_entry (e : Audit.entry) =
  let mk ~kind ~src ~dst ?(tags = []) ?denied ?detail () =
    Some { kind; src; dst; seq = e.Audit.seq; tick = e.Audit.tick;
           tags; denied; detail }
  in
  let self = Process e.Audit.pid in
  match e.Audit.event with
  | Audit.Tainted { op; subject; added } ->
      mk ~kind:op ~src:(subject_node e.Audit.pid subject) ~dst:self
        ~tags:(tag_names added) ()
  | Audit.Flow_checked { op; src = src_l; decision; subject; _ } ->
      let tags =
        match decision with
        | Error d when not (Label.is_empty (denial_tags d)) ->
            tag_names (denial_tags d)
        | _ -> tag_names src_l.Flow.secrecy
      in
      let other = subject_node e.Audit.pid subject in
      let src, dst = if inbound_op op then (other, self) else (self, other) in
      mk ~kind:op ~src ~dst ~tags ?denied:(denied decision) ()
  | Audit.Label_changed { new_labels; decision; _ } ->
      mk ~kind:"relabel" ~src:self ~dst:self
        ~tags:(tag_names new_labels.Flow.secrecy) ?denied:(denied decision) ()
  | Audit.Export_attempted { destination; labels; decision } ->
      mk ~kind:"export" ~src:self ~dst:(Remote destination)
        ~tags:(tag_names labels.Flow.secrecy) ?denied:(denied decision) ()
  | Audit.Declassified { tag; context } ->
      mk ~kind:"declassify" ~src:self ~dst:self ~tags:[ Tag.name tag ]
        ~detail:context ()
  | Audit.Object_labeled { op; path; labels } ->
      mk ~kind:op ~src:self ~dst:(Object path)
        ~tags:(tag_names labels.Flow.secrecy) ()
  | Audit.Sync_applied { peer; path; direction } ->
      let remote = Remote peer and obj = Object path in
      let src, dst =
        if direction = "push" then (obj, remote) else (remote, obj)
      in
      mk ~kind:"sync" ~src ~dst ~detail:direction ()
  | Audit.Spawned { child; name; labels } ->
      mk ~kind:"spawn" ~src:self ~dst:(Process child)
        ~tags:(tag_names labels.Flow.secrecy) ~detail:name ()
  | Audit.Gate_invoked { gate; child } ->
      mk ~kind:"gate" ~src:self ~dst:(Process child) ~detail:gate ()
  | Audit.Sync_fault { path; action; attempt } ->
      (* retries are causal history too: a transfer that took three
         attempts shows its two lost deliveries on the chain *)
      mk ~kind:"sync.fault" ~src:(Object path) ~dst:(Object path)
        ~detail:(Printf.sprintf "%s attempt=%d" action attempt)
        ()
  | Audit.Sync_recovered { peer; path; phase } ->
      mk ~kind:"sync.recover" ~src:(Remote peer) ~dst:(Object path)
        ~detail:phase ()
  | Audit.Killed _ | Audit.Quota_hit _ | Audit.App_note _ -> None

(* Newest first, so the frontier needs no horizon per node: a node
   that joins through an edge at [seq] meets only older entries from
   then on. Prepending builds the slice oldest first. *)
let slice log ~tags ~before node =
  let frontier = Hashtbl.create 16 in
  Hashtbl.replace frontier node ();
  let carried e = tags = [] || List.exists (fun t -> List.mem t e.tags) tags in
  Audit.fold_back log ~before ~init:[] ~f:(fun acc entry ->
      match edge_of_entry entry with
      | Some e when Hashtbl.mem frontier e.dst && carried e ->
          Hashtbl.replace frontier e.src ();
          e :: acc
      | _ -> acc)

let find_denial log ?seq ?pid () =
  match seq with
  | Some s -> (
      match Audit.query log ~seq_from:s ~seq_to:s () with
      | [ e ] when Audit.is_denial e -> Some e
      | _ -> None)
  | None -> (
      let denials = Audit.query log ?pid ~denials_only:true () in
      match List.rev denials with e :: _ -> Some e | [] -> None)

let explain log (entry : Audit.entry) =
  match edge_of_entry entry with
  | Some edge when Audit.is_denial entry ->
      Ok (slice log ~tags:edge.tags ~before:edge.seq edge.src @ [ edge ])
  | _ ->
      Error
        (Printf.sprintf "audit entry #%d is not a denial (%s)" entry.Audit.seq
           (Audit.event_kind entry.Audit.event))

(* ---- rendering ------------------------------------------------------- *)

(* A process reads with the name of the newest Spawned or Gate_invoked
   entry that names it. *)
let names_of log =
  let names = Hashtbl.create 64 in
  Audit.iter log ~f:(fun e ->
      match e.Audit.event with
      | Audit.Spawned { child; name; _ }
      | Audit.Gate_invoked { gate = name; child } ->
          Hashtbl.replace names child name
      | _ -> ());
  names

let node_label names = function
  | Process pid -> (
      match Hashtbl.find_opt names pid with
      | Some name -> Printf.sprintf "pid %d (%s)" pid name
      | None -> Printf.sprintf "pid %d" pid)
  | Object path -> path
  | Remote name -> name

let render_tags tags =
  match tags with
  | [] -> ""
  | _ -> Printf.sprintf " {%s}" (String.concat ", " tags)

let render_edge names e =
  let detail = match e.detail with None -> "" | Some d -> Printf.sprintf " (%s)" d in
  let verdict = match e.denied with None -> "" | Some d -> Printf.sprintf " DENIED: %s" d in
  Printf.sprintf "#%d t=%d %s -[%s]-> %s%s%s%s" e.seq e.tick
    (node_label names e.src) e.kind (node_label names e.dst)
    (render_tags e.tags) detail verdict

(* A slice of a log that has evicted entries may be missing its
   roots; every rendering says how many entries are gone. *)
let eviction_notice log =
  match Audit.evicted log with
  | 0 -> []
  | n ->
      [ Printf.sprintf
          "(%d older audit %s evicted; earlier history may be missing)" n
          (if n = 1 then "entry was" else "entries were") ]

let explain_text log entry =
  Result.map
    (fun chain ->
      let names = names_of log in
      String.concat "\n"
        (List.map (render_edge names) chain @ eviction_notice log))
    (explain log entry)

let node_id = function
  | Process pid -> Printf.sprintf "p%d" pid
  | Object path -> "o_" ^ Dot.ident path
  | Remote name -> "r_" ^ Dot.ident name

let node_decl names node =
  let attrs =
    match node with
    | Process _ -> [ ("shape", "ellipse") ]
    | Object _ -> [ ("shape", "box") ]
    | Remote _ -> [ ("shape", "diamond"); ("style", "dashed") ]
  in
  Dot.node (node_id node) ~label:(node_label names node) ~attrs

let edge_decl e =
  let label =
    Printf.sprintf "#%d %s%s" e.seq e.kind
      (match e.tags with [] -> "" | ts -> "\n{" ^ String.concat "," ts ^ "}")
  in
  let attrs =
    ("label", label)
    ::
    (match e.denied with
    | None -> []
    | Some _ -> [ ("color", "red"); ("fontcolor", "red") ])
  in
  Dot.edge (node_id e.src) (node_id e.dst) ~attrs

let explain_dot log entry =
  Result.map
    (fun chain ->
      let names = names_of log in
      let nodes =
        List.sort_uniq compare
          (List.concat_map (fun e -> [ e.src; e.dst ]) chain)
      in
      let notice text =
        Dot.node "_evicted" ~label:text
          ~attrs:[ ("shape", "note"); ("style", "dashed") ]
      in
      Dot.digraph "provenance"
        (List.map (node_decl names) nodes
        @ List.map edge_decl chain
        @ List.map notice (eviction_notice log)))
    (explain log entry)

(* ---- provenance ------------------------------------------------------ *)

module Tags = Set.Make (String)

(* The tags a filesystem object currently carries are the tags of its
   most recent labeling edge (fs.create / fs.mkdir / fs.relabel):
   relabels replace the label wholesale, so superseded labelings must
   not be reported as current. *)
let file_provenance log ~path =
  let node = Object path in
  let current =
    Audit.fold log ~init:[] ~f:(fun current entry ->
        match edge_of_entry entry with
        | Some { kind = "fs.create" | "fs.mkdir" | "fs.relabel"; dst; tags; _ }
          when dst = node ->
            tags
        | _ -> current)
  in
  List.map
    (fun tag -> (tag, slice log ~tags:[ tag ] ~before:max_int node))
    (Tags.elements (Tags.of_list current))

(* The tags [pid] carries just before [before]: those it started with
   (its Spawned entry's labels, or a gate child's caller's tags at the
   call), then its own taints add, declassifications remove and
   allowed relabels rewrite. *)
let rec tags_before log ~pid ~before =
  Audit.fold log ~init:Tags.empty ~f:(fun tags (e : Audit.entry) ->
      if e.Audit.seq >= before then tags
      else
        match e.Audit.event with
        | Audit.Spawned { child; labels; _ } when child = pid ->
            Tags.of_list (tag_names labels.Flow.secrecy)
        | Audit.Gate_invoked { child; _ } when child = pid ->
            tags_before log ~pid:e.Audit.pid ~before:e.Audit.seq
        | _ when e.Audit.pid <> pid -> tags
        | Audit.Tainted { added; _ } ->
            Tags.union tags (Tags.of_list (tag_names added))
        | Audit.Declassified { tag; _ } -> Tags.remove (Tag.name tag) tags
        | Audit.Label_changed { new_labels; decision = Ok (); _ } ->
            Tags.of_list (tag_names new_labels.Flow.secrecy)
        | _ -> tags)

(* The newest Spawned or Gate_invoked entry that started [pid] before
   [before]. *)
let start_of log ~pid ~before =
  Audit.fold_back log ~before ~init:None ~f:(fun found (e : Audit.entry) ->
      match (found, e.Audit.event) with
      | None, (Audit.Spawned { child; _ } | Audit.Gate_invoked { child; _ })
        when child = pid ->
          Some e
      | _ -> found)

(* How [tag] reached [pid] before [before]: its slice into the process
   and, for a tag a gate child inherited, the caller's history of the
   tag before the call followed by the gate edge. *)
let rec process_history log ~pid ~tag ~before =
  let own = slice log ~tags:[ tag ] ~before (Process pid) in
  match start_of log ~pid ~before with
  | Some ({ Audit.event = Audit.Gate_invoked _; pid = caller; seq; _ } as call)
    when Tags.mem tag (tags_before log ~pid:caller ~before:seq) ->
      List.sort_uniq
        (fun a b -> Int.compare a.seq b.seq)
        (process_history log ~pid:caller ~tag ~before:seq
        @ Option.to_list (edge_of_entry call)
        @ own)
  | _ -> own

let process_provenance log ~pid =
  List.map
    (fun tag -> (tag, process_history log ~pid ~tag ~before:max_int))
    (Tags.elements (tags_before log ~pid ~before:max_int))

let provenance_text log ~target histories =
  let names = names_of log in
  let lines =
    match histories with
    | [] ->
        [ Printf.sprintf "%s carries no secrecy tags (per the retained log)"
            target ]
    | _ ->
        List.concat_map
          (fun (tag, edges) ->
            Printf.sprintf "%s: tag %s arrived via" target tag
            :: List.map (fun e -> "  " ^ render_edge names e) edges)
          histories
  in
  String.concat "" (List.map (fun l -> l ^ "\n") (lines @ eviction_notice log))

(* ---- audit-report ---------------------------------------------------- *)

let reason_name (d : Flow.denial) =
  match d with
  | Flow.Secrecy_violation _ -> "secrecy_violation"
  | Flow.Integrity_violation _ -> "integrity_violation"
  | Flow.Unauthorized_add _ -> "unauthorized_add"
  | Flow.Unauthorized_drop _ -> "unauthorized_drop"

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

(* counts descending, then key ascending: deterministic for goldens *)
let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, va) (kb, vb) ->
         match Int.compare vb va with 0 -> compare ka kb | c -> c)

let report log =
  let declass = Hashtbl.create 16 in     (* (context, tag) *)
  let denial_reasons = Hashtbl.create 8 in
  let denial_ops = Hashtbl.create 16 in
  let exports = Hashtbl.create 8 in      (* (destination, verdict) *)
  let sync_faults = Hashtbl.create 8 in  (* action *)
  let sync_recoveries = Hashtbl.create 8 in  (* phase *)
  let app_denials = Hashtbl.create 16 in
  let tainted_paths = Hashtbl.create 32 in
  let pid_names = Hashtbl.create 32 in
  let name_of pid =
    match Hashtbl.find_opt pid_names pid with
    | Some n -> n
    | None -> if pid = 0 then "kernel" else Printf.sprintf "pid %d" pid
  in
  let note_denial ~op pid (d : Flow.denial) =
    bump denial_reasons (reason_name d);
    bump denial_ops op;
    bump app_denials (name_of pid)
  in
  Audit.iter log ~f:(fun (e : Audit.entry) ->
      match e.Audit.event with
      | Audit.Spawned { child; name; _ } -> Hashtbl.replace pid_names child name
      | Audit.Gate_invoked { gate; child } ->
          Hashtbl.replace pid_names child gate
      | Audit.Declassified { tag; context } ->
          bump declass (context, Tag.name tag)
      | Audit.Flow_checked { op; decision = Error d; _ } ->
          note_denial ~op e.Audit.pid d
      | Audit.Label_changed { decision = Error d; _ } ->
          note_denial ~op:"relabel" e.Audit.pid d
      | Audit.Export_attempted { destination; decision; _ } -> (
          match decision with
          | Ok () -> bump exports (destination, "allow")
          | Error d ->
              bump exports (destination, "deny");
              note_denial ~op:"export" e.Audit.pid d)
      | Audit.Sync_fault { action; _ } -> bump sync_faults action
      | Audit.Sync_recovered { phase; _ } -> bump sync_recoveries phase
      | Audit.Tainted { subject = Audit.File path; _ } -> bump tainted_paths path
      | _ -> ());
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let section title rows render =
    line "%s" title;
    if rows = [] then line "  (none)"
    else List.iter (fun (k, v) -> line "  %s %d" (render k) v) rows
  in
  line "W5 audit report (%d entries retained, %d evicted)" (Audit.length log)
    (Audit.evicted log);
  line "";
  section "declassifications (by authority and tag):" (sorted_counts declass)
    (fun (context, tag) -> Printf.sprintf "%-40s %-24s" context tag);
  line "";
  section "denials (by reason):" (sorted_counts denial_reasons)
    (Printf.sprintf "%-40s");
  section "denials (by operation):" (sorted_counts denial_ops)
    (Printf.sprintf "%-40s");
  section "denials (by process):" (sorted_counts app_denials)
    (Printf.sprintf "%-40s");
  line "";
  section "exports (by destination and verdict):" (sorted_counts exports)
    (fun (dest, verdict) -> Printf.sprintf "%-40s %-8s" dest verdict);
  line "";
  (* federation health: only printed when the trace federated at all,
     so silo-only golden outputs are unchanged *)
  if Hashtbl.length sync_faults > 0 || Hashtbl.length sync_recoveries > 0
  then begin
    section "sync faults (by action):" (sorted_counts sync_faults)
      (Printf.sprintf "%-40s");
    section "sync recoveries (by intent phase):"
      (sorted_counts sync_recoveries) (Printf.sprintf "%-40s");
    line ""
  end;
  let top_paths =
    match sorted_counts tainted_paths with
    | xs when List.length xs > 10 -> List.filteri (fun i _ -> i < 10) xs
    | xs -> xs
  in
  section "most-tainting paths (top 10):" top_paths (Printf.sprintf "%-40s");
  Buffer.contents buf
