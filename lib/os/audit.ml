open W5_difc

type subject =
  | No_subject
  | File of string
  | Peer of int
  | Gate of string

type event =
  | Flow_checked of {
      op : string;
      src : Flow.labels;
      dst : Flow.labels;
      decision : (unit, Flow.denial) result;
      subject : subject;
    }
  | Label_changed of {
      old_labels : Flow.labels;
      new_labels : Flow.labels;
      decision : (unit, Flow.denial) result;
    }
  | Export_attempted of {
      destination : string;
      labels : Flow.labels;
      decision : (unit, Flow.denial) result;
    }
  | Declassified of { tag : Tag.t; context : string }
  | Tainted of { op : string; subject : subject; added : Label.t }
  | Object_labeled of { op : string; path : string; labels : Flow.labels }
  | Sync_applied of { peer : string; path : string; direction : string }
  | Sync_fault of { path : string; action : string; attempt : int }
  | Sync_recovered of { peer : string; path : string; phase : string }
  | Spawned of { child : int; name : string; labels : Flow.labels }
  | Gate_invoked of { gate : string; child : int }
  | Killed of { reason : string }
  | Quota_hit of Resource.kind
  | App_note of string

type entry = {
  seq : int;
  tick : int;
  pid : int;
  event : event;
}

type log = {
  mutable seq : int;
  mutable items : entry list;  (* newest first *)
  mutable count : int;
  capacity : int option;
}

let create ?capacity () = { seq = 0; items = []; count = 0; capacity }

let record log ~tick ~pid event =
  log.seq <- log.seq + 1;
  log.items <- { seq = log.seq; tick; pid; event } :: log.items;
  log.count <- log.count + 1;
  match log.capacity with
  | Some cap when log.count > 2 * cap ->
      (* amortized truncation: keep the newest [cap] entries *)
      log.items <- List.filteri (fun i _ -> i < cap) log.items;
      log.count <- cap
  | Some _ | None -> ()

let length log = log.count
let evicted log = log.seq - log.count
let entries log = List.rev log.items

(* Oldest-first traversal without building the reversed list; the log
   is bounded (see [create]) so the non-tail recursion is fine. *)
let fold log ~init ~f =
  List.fold_right (fun entry acc -> f acc entry) log.items init

let iter log ~f = fold log ~init:() ~f:(fun () entry -> f entry)
let find log ~f = List.rev (List.filter f log.items)

let is_denial entry =
  match entry.event with
  | Flow_checked { decision = Error _; _ }
  | Label_changed { decision = Error _; _ }
  | Export_attempted { decision = Error _; _ } ->
      true
  | Flow_checked _ | Label_changed _ | Export_attempted _ | Declassified _
  | Tainted _ | Object_labeled _ | Sync_applied _ | Sync_fault _
  | Sync_recovered _ | Spawned _ | Gate_invoked _ | Killed _ | Quota_hit _
  | App_note _ ->
      false

let event_kind = function
  | Flow_checked _ -> "flow_checked"
  | Label_changed _ -> "label_changed"
  | Export_attempted _ -> "export_attempted"
  | Declassified _ -> "declassified"
  | Tainted _ -> "tainted"
  | Object_labeled _ -> "object_labeled"
  | Sync_applied _ -> "sync_applied"
  | Sync_fault _ -> "sync_fault"
  | Sync_recovered _ -> "sync_recovered"
  | Spawned _ -> "spawned"
  | Gate_invoked _ -> "gate_invoked"
  | Killed _ -> "killed"
  | Quota_hit _ -> "quota_hit"
  | App_note _ -> "app_note"

let query log ?pid ?kind ?seq_from ?seq_to ?(denials_only = false) () =
  find log ~f:(fun e ->
      (match pid with None -> true | Some p -> e.pid = p)
      && (match kind with None -> true | Some k -> event_kind e.event = k)
      && (match seq_from with None -> true | Some s -> e.seq >= s)
      && (match seq_to with None -> true | Some s -> e.seq <= s)
      && ((not denials_only) || is_denial e))

let denials log = find log ~f:is_denial
let for_pid log pid = find log ~f:(fun e -> e.pid = pid)

let clear log =
  log.seq <- 0;
  log.items <- [];
  log.count <- 0

let pp_subject fmt = function
  | No_subject -> ()
  | File path -> Format.fprintf fmt " on %s" path
  | Peer pid -> Format.fprintf fmt " with #%d" pid
  | Gate gate -> Format.fprintf fmt " via gate %s" gate

let pp_decision fmt = function
  | Ok () -> Format.pp_print_string fmt "ALLOW"
  | Error d -> Format.fprintf fmt "DENY(%a)" Flow.pp_denial d

let pp_event fmt = function
  | Flow_checked { op; src; dst; decision; subject } ->
      Format.fprintf fmt "flow %s%a [%a] -> [%a]: %a" op pp_subject subject
        Flow.pp_labels src Flow.pp_labels dst pp_decision decision
  | Label_changed { old_labels; new_labels; decision } ->
      Format.fprintf fmt "relabel [%a] -> [%a]: %a" Flow.pp_labels old_labels
        Flow.pp_labels new_labels pp_decision decision
  | Export_attempted { destination; labels; decision } ->
      Format.fprintf fmt "export to %s [%a]: %a" destination Flow.pp_labels
        labels pp_decision decision
  | Declassified { tag; context } ->
      Format.fprintf fmt "declassify %a (%s)" Tag.pp tag context
  | Tainted { op; subject; added } ->
      Format.fprintf fmt "taint %s%a +%a" op pp_subject subject Label.pp added
  | Object_labeled { op; path; labels } ->
      Format.fprintf fmt "label %s %s [%a]" op path Flow.pp_labels labels
  | Sync_applied { peer; path; direction } ->
      Format.fprintf fmt "sync %s %s %s" direction peer path
  | Sync_fault { path; action; attempt } ->
      Format.fprintf fmt "sync fault %s %s attempt=%d" action path attempt
  | Sync_recovered { peer; path; phase } ->
      Format.fprintf fmt "sync recovered %s %s phase=%s" peer path phase
  | Spawned { child; name; labels } ->
      Format.fprintf fmt "spawn #%d %s [%a]" child name Flow.pp_labels labels
  | Gate_invoked { gate; child } ->
      Format.fprintf fmt "gate %s -> #%d" gate child
  | Killed { reason } -> Format.fprintf fmt "killed: %s" reason
  | Quota_hit k -> Format.fprintf fmt "quota hit: %a" Resource.pp_kind k
  | App_note s -> Format.fprintf fmt "note: %s" s

let pp_entry fmt (e : entry) =
  Format.fprintf fmt "#%d t=%d pid=%d %a" e.seq e.tick e.pid pp_event e.event
