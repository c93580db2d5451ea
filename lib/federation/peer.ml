open W5_platform
open W5_os
module Fault = W5_fault.Fault
module Tracer = W5_obs.Tracer
module Health = W5_obs.Health

type t = {
  mutable sides : (string * Platform.t) list;  (* insertion order *)
  links : (string, Sync.link list) Hashtbl.t;  (* user -> pairwise links *)
  health : Health.t;
}

let create ?health () =
  {
    sides = [];
    links = Hashtbl.create 8;
    health = (match health with Some h -> h | None -> Health.create ());
  }

let health t = t.health

let add_provider t ~name platform =
  if List.mem_assoc name t.sides then Error (name ^ ": provider exists")
  else begin
    t.sides <- t.sides @ [ (name, platform) ];
    Ok ()
  end

let providers t = t.sides
let provider t ~name = List.assoc_opt name t.sides

let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

let link_user ?faults t ~user ~files =
  let holding =
    List.filter
      (fun (_, platform) -> Platform.find_account platform user <> None)
      t.sides
  in
  if List.length holding < 2 then
    Error (user ^ ": needs an account on at least two providers")
  else
    let plan = Option.value faults ~default:(Fault.none ()) in
    let rec build acc = function
      | [] -> Ok (List.rev acc)
      | ((name_a, pa), (name_b, pb)) :: rest -> (
          let a = { Sync.platform = pa; provider_name = name_a } in
          let b = { Sync.platform = pb; provider_name = name_b } in
          let pair = name_a ^ "~" ^ name_b in
          let ka = Platform.kernel pa and kb = Platform.kernel pb in
          let tracer_a = Kernel.tracer ka in
          let on_drop attempt =
            Tracer.event tracer_a ~tick:(Kernel.tick ka) "peer.link.fault"
              ~fields:
                [ ("action", "drop"); ("attempt", string_of_int attempt) ]
          in
          let result =
            Tracer.with_span tracer_a
              ~clock:(fun () -> Kernel.tick ka)
              ~fields:[ ("peer", name_b); ("pair", pair) ]
              "peer.link"
              (fun () ->
                (* the link handshake is a message too: it can be lost
                   (a couple of retries) or arrive while a provider is
                   down *)
                match
                  Fault.one_shot plan ~op:"peer.link" ~file:pair ~on_drop
                with
                | Error `Lost -> Error (pair ^ ": link handshake lost")
                | Error `Crashed -> Error ("crash: peer.link " ^ pair)
                | Ok () -> (
                    match Sync.establish ?faults ~a ~b ~user ~files () with
                    | Error _ as e -> e
                    | Ok link ->
                        (* the accepting side logs the handshake under
                           the carried context — the first
                           cross-provider edge of the trace *)
                        Tracer.handoff tracer_a ~origin:name_a
                          ~tick:(Kernel.tick ka) ~into:(Kernel.tracer kb)
                          ~clock:(fun () -> Kernel.tick kb)
                          ~fields:[ ("peer", name_a) ]
                          "peer.link.accept" ignore;
                        Ok link))
          in
          match result with
          | Error _ as e -> e
          | Ok link -> build (link :: acc) rest)
    in
    match build [] (pairs holding) with
    | Error _ as e -> e
    | Ok links ->
        Hashtbl.replace t.links user links;
        Ok ()

let linked_users t =
  Hashtbl.fold (fun user _ acc -> user :: acc) t.links []
  |> List.sort String.compare

let user_links t user =
  match Hashtbl.find_opt t.links user with
  | Some links -> Ok links
  | None -> Error (user ^ ": not linked")

(* Fold one link's round outcome into the mesh's health model. Each
   link's home (side A) is the observer: health is per-viewpoint, not
   symmetric, because each side only witnesses its own rounds. *)
let observe_link t link outcome =
  let a, b = Sync.sides link in
  let observer = a.Sync.provider_name and peer = b.Sync.provider_name in
  let tick = Kernel.tick (Platform.kernel a.Sync.platform) in
  (match outcome with
  | Ok (stats : Sync.stats) ->
      Health.observe_round t.health ~observer ~peer ~tick ~ok:true
        ~retries:stats.Sync.retried ~faults:stats.Sync.faulted
        ~timed_out:(stats.Sync.timed_out > 0)
        ~recovered:stats.Sync.recovered
  | Error _ ->
      (* a crashed round: the peer interaction failed outright *)
      Health.observe_round t.health ~observer ~peer ~tick ~ok:false ~retries:0
        ~faults:1 ~timed_out:false ~recovered:0);
  Health.note_lag t.health ~observer ~peer ~lag:(Sync.lag link)

let sync_round t ~user =
  match user_links t user with
  | Error _ as e -> e
  | Ok links ->
      List.fold_left
        (fun acc link ->
          match acc with
          | Error _ as e -> e
          | Ok moved -> (
              let result = Sync.sync link in
              observe_link t link result;
              match result with
              | Error _ as e -> e
              | Ok stats ->
                  Ok
                    (moved + stats.Sync.a_to_b + stats.Sync.b_to_a
                   + stats.Sync.merged)))
        (Ok 0) links

let converged t ~user =
  match user_links t user with
  | Error _ -> false
  | Ok links -> List.for_all Sync.converged links

let sync_until_converged ?(max_rounds = 10) t ~user =
  let rec go round =
    if round > max_rounds then Error "did not converge"
    else
      match sync_round t ~user with
      | Error _ as e -> e
      | Ok 0 -> Ok round
      | Ok _ -> go (round + 1)
  in
  go 1
