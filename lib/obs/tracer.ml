type t = {
  mutable t_enabled : bool;
  t_capacity : int;
  mutable next_id : int;
  mutable stack : Span.t list;      (* open spans, innermost first *)
  ring : Span.t option array;       (* completed roots, circular *)
  mutable ring_start : int;         (* index of the oldest root *)
  mutable ring_len : int;
  mutable dropped_count : int;      (* roots evicted from the ring *)
  mutable on_drop : int -> unit;
}

let create ?(capacity = 16) ?(enabled = false) () =
  let capacity = max 1 capacity in
  { t_enabled = enabled; t_capacity = capacity; next_id = 0; stack = [];
    ring = Array.make capacity None; ring_start = 0; ring_len = 0;
    dropped_count = 0; on_drop = ignore }

let enabled t = t.t_enabled
let set_enabled t b = t.t_enabled <- b
let set_on_drop t f = t.on_drop <- f
let open_depth t = List.length t.stack

(* O(1): a full ring overwrites its oldest slot instead of rebuilding
   the completed list (the old List.filteri cost O(capacity) on every
   commit past the cap). *)
let commit t root =
  if t.ring_len < t.t_capacity then begin
    t.ring.((t.ring_start + t.ring_len) mod t.t_capacity) <- Some root;
    t.ring_len <- t.ring_len + 1
  end
  else begin
    t.ring.(t.ring_start) <- Some root;
    t.ring_start <- (t.ring_start + 1) mod t.t_capacity;
    t.dropped_count <- t.dropped_count + 1;
    t.on_drop 1
  end

let start_span t ~tick ?(fields = []) name =
  if t.t_enabled then begin
    t.next_id <- t.next_id + 1;
    let parent = match t.stack with [] -> None | p :: _ -> Some p.Span.span_id in
    let span =
      Span.make ~id:t.next_id ~parent ~name ~fields ~start_tick:tick
    in
    (match t.stack with [] -> () | p :: _ -> Span.add_child p span);
    t.stack <- span :: t.stack
  end

let annotate t fields =
  if t.t_enabled then
    match t.stack with [] -> () | span :: _ -> Span.annotate span fields

let end_span t ~tick =
  if t.t_enabled then
    match t.stack with
    | [] -> ()
    | span :: rest ->
        Span.finish span ~tick;
        t.stack <- rest;
        if rest = [] then commit t span

let event t ~tick ?fields name =
  if t.t_enabled then begin
    start_span t ~tick ?fields name;
    end_span t ~tick
  end

let with_span t ~clock ?fields name f =
  if not t.t_enabled then f ()
  else begin
    start_span t ~tick:(clock ()) ?fields name;
    match f () with
    | result -> end_span t ~tick:(clock ()); result
    | exception exn -> end_span t ~tick:(clock ()); raise exn
  end

(* The context the sending side hands over: parented under its
   innermost open span, rooted at its current trace. *)
let context t ~origin ~tick =
  if not t.t_enabled then None
  else
    match t.stack with
    | [] -> None
    | innermost :: _ ->
        let root = List.nth t.stack (List.length t.stack - 1) in
        (* A root that is itself a remote continuation keeps the
           original trace identity: the chain stays one trace over any
           number of hops. *)
        let trace_origin, trace_root =
          match Trace_context.of_fields root.Span.span_fields with
          | Some carried ->
              (carried.Trace_context.trace_origin,
               carried.Trace_context.trace_root)
          | None -> (origin, root.Span.span_id)
        in
        Some
          {
            Trace_context.trace_origin;
            trace_root;
            parent_origin = origin;
            parent_span = innermost.Span.span_id;
            origin_tick = tick;
          }

let handoff t ~origin ~tick ~into ~clock ~fields name f =
  match context t ~origin ~tick with
  | Some context when into.t_enabled -> (
      (* The remote work is a root of its own on [into] — the carried
         context (not local nesting) says who its parent is, so any
         open local stack is set aside rather than adopted. *)
      let saved = into.stack in
      into.stack <- [];
      start_span into ~tick:(clock ())
        ~fields:(Trace_context.to_fields context @ fields)
        name;
      let restore () =
        end_span into ~tick:(clock ());
        into.stack <- saved
      in
      match f () with
      | result -> restore (); result
      | exception exn -> restore (); raise exn)
  | Some _ | None -> f ()

let traces t =
  let rec go i acc =
    if i < 0 then acc
    else
      match t.ring.((t.ring_start + i) mod t.t_capacity) with
      | Some s -> go (i - 1) (s :: acc)
      | None -> go (i - 1) acc
  in
  go (t.ring_len - 1) []

let latest t =
  if t.ring_len = 0 then None
  else t.ring.((t.ring_start + t.ring_len - 1) mod t.t_capacity)

let dropped t = t.dropped_count

let clear t =
  t.stack <- [];
  Array.fill t.ring 0 t.t_capacity None;
  t.ring_start <- 0;
  t.ring_len <- 0;
  t.dropped_count <- 0
