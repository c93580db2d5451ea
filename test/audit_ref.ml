(* Reference audit log for differential tests of [W5_os.Audit]: every
   record ever made, newest first, in a plain list, with retention
   applied when it is read. Slow on purpose; its value is that it is
   obviously what it says. *)

open W5_os

type t = {
  capacity : int;
  mutable seq : int;
  mutable recorded : Audit.entry list;  (* newest first, never cut *)
}

let create ~capacity = { capacity; seq = 0; recorded = [] }

let record t ~tick ~pid event =
  t.seq <- t.seq + 1;
  t.recorded <- { Audit.seq = t.seq; tick; pid; event } :: t.recorded

let clear t =
  t.seq <- 0;
  t.recorded <- []

(* The newest [capacity] records, oldest first. *)
let entries t = List.rev (List.filteri (fun i _ -> i < t.capacity) t.recorded)
let length t = List.length (entries t)
let evicted t = t.seq - length t

let query t ?pid ?kind ?seq_from ?seq_to ?(denials_only = false) () =
  List.filter
    (fun (e : Audit.entry) ->
      (match pid with None -> true | Some p -> e.pid = p)
      && (match kind with None -> true | Some k -> Audit.event_kind e.event = k)
      && (match seq_from with None -> true | Some s -> e.seq >= s)
      && (match seq_to with None -> true | Some s -> e.seq <= s)
      && ((not denials_only) || Audit.is_denial e))
    (entries t)

let denials t = List.filter Audit.is_denial (entries t)
let for_pid t pid = List.filter (fun (e : Audit.entry) -> e.pid = pid) (entries t)
