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

(* The retained window is a ring of [capacity] slots stored as
   columns. The entry with sequence number [s] sits in slot
   [(s - 1) mod capacity], so a slot stores no seq, and a full ring
   overwrites its oldest slot. Readers build an [entry] only for a
   slot they visit or match. *)
type log = {
  capacity : int;
  mutable ticks : int array;
  mutable pids : int array;
  mutable events : event array;
  mutable seq : int;  (* records since [create] *)
}

(* What a slot holds before its first record. *)
let vacant = App_note ""

(* The columns start this long, small enough to be allocated in the
   minor heap, and double while the log first fills. Allocating all
   65,536 slots up front cost 0.6-1.2 ms a [Kernel.create] on a 2-vCPU
   Xeon VM, mostly in major collections, against 5 us for the rest of
   the kernel. *)
let initial_slots = 256

let create ~capacity =
  if capacity < 1 then invalid_arg "Audit.create: capacity must be positive";
  let n = min capacity initial_slots in
  {
    capacity;
    ticks = Array.make n 0;
    pids = Array.make n 0;
    events = Array.make n vacant;
    seq = 0;
  }

(* Double the columns, up to [capacity]. This runs only before the
   ring first wraps, while every seq still sits at its own index, so
   copying the prefix keeps every slot in place. *)
let grow log =
  let n = min log.capacity (2 * Array.length log.events) in
  let extend column fill =
    let longer = Array.make n fill in
    Array.blit column 0 longer 0 (Array.length column);
    longer
  in
  log.ticks <- extend log.ticks 0;
  log.pids <- extend log.pids 0;
  log.events <- extend log.events vacant

let record log ~tick ~pid event =
  if log.seq = Array.length log.events && log.seq < log.capacity then grow log;
  let i = log.seq mod log.capacity in
  log.ticks.(i) <- tick;
  log.pids.(i) <- pid;
  log.events.(i) <- event;
  log.seq <- log.seq + 1

let length log = min log.seq log.capacity
let evicted log = log.seq - length log

let entry_at log seq i =
  { seq; tick = log.ticks.(i); pid = log.pids.(i); event = log.events.(i) }

let fold log ~init ~f =
  let first = evicted log + 1 in
  let acc = ref init and i = ref ((first - 1) mod log.capacity) in
  for seq = first to log.seq do
    acc := f !acc (entry_at log seq !i);
    i := if !i + 1 = log.capacity then 0 else !i + 1
  done;
  !acc

let iter log ~f = fold log ~init:() ~f:(fun () entry -> f entry)

(* The retained entries with seq in [lo, hi] whose pid and event pass
   [keep], oldest first. The scan runs newest to oldest over the
   columns, so the list is built without a reversal, and an entry is
   built only for a match. *)
let select ?(lo = 1) ?(hi = max_int) log keep =
  let first = max lo (evicted log + 1) and last = min hi log.seq in
  let acc = ref [] in
  if first <= last then begin
    let i = ref ((last - 1) mod log.capacity) in
    for seq = last downto first do
      if keep log.pids.(!i) log.events.(!i) then
        acc := entry_at log seq !i :: !acc;
      i := if !i = 0 then log.capacity - 1 else !i - 1
    done
  end;
  !acc

let entries log = select log (fun _ _ -> true)

let denies = function
  | Flow_checked { decision = Error _; _ }
  | Label_changed { decision = Error _; _ }
  | Export_attempted { decision = Error _; _ } ->
      true
  | Flow_checked _ | Label_changed _ | Export_attempted _ | Declassified _
  | Tainted _ | Object_labeled _ | Sync_applied _ | Sync_fault _
  | Sync_recovered _ | Spawned _ | Gate_invoked _ | Killed _ | Quota_hit _
  | App_note _ ->
      false

let is_denial entry = denies entry.event

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
  select ?lo:seq_from ?hi:seq_to log (fun p event ->
      (match pid with None -> true | Some q -> p = q)
      && (match kind with None -> true | Some k -> event_kind event = k)
      && ((not denials_only) || denies event))

let denials log = select log (fun _ event -> denies event)
let for_pid log pid = select log (fun p _ -> p = pid)

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
