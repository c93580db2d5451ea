open W5_os
open W5_store
open W5_platform
open W5_http
module Fault = W5_fault.Fault
module Tracer = W5_obs.Tracer
module Health = W5_obs.Health

let providers = [ "east"; "west"; "south" ]
let user = "alice"
let canaries = [ "CANARY-alice-END"; "CANARY-relocated-END" ]

type outcome = {
  mesh : Peer.t;
  spans : (string * W5_obs.Span.t list) list;
  health_now : string -> int;
  slo : Health.Slo.t;
  slo_now : int;
  round_notes : string list;
}

let kernel_of mesh name =
  match Peer.provider mesh ~name with
  | Some platform -> Platform.kernel platform
  | None -> invalid_arg (name ^ ": not in the scenario mesh")

(* Drain every provider's completed traces into the accumulator and
   clear the rings, so a long scenario never evicts mid-story (the
   per-kernel ring holds 16 roots; a round produces a handful). Span
   ids survive the clear, so drained spans stay unique and mergeable. *)
let drain mesh acc =
  List.iter
    (fun (name, platform) ->
      let tracer = Kernel.tracer (Platform.kernel platform) in
      let spans = Tracer.traces tracer in
      Tracer.clear tracer;
      let prev = Option.value (Hashtbl.find_opt acc name) ~default:[] in
      Hashtbl.replace acc name (prev @ spans))
    (Peer.providers mesh)

let write_profile platform ~fields =
  let account = Platform.account_exn platform user in
  Platform.write_user_record platform account ~file:"profile"
    (Record.of_fields fields)

(* The shared harness: build the 3-provider mesh, plant the canary,
   install [plan_for] on each link (keyed "a~b"), run [rounds] gossip
   rounds draining traces between them. Crashed rounds are part of the
   story — the next round recovers — so errors are recorded, not
   propagated. *)
let run_mesh ~plan_for ~rounds () =
  let health =
    (* generous hysteresis so the verdict is stable however many ticks
       the tail of the scenario consumes *)
    Health.create ~window:1024 ~recover_after:256 ~unreachable_after:4096 ()
  in
  let mesh = Peer.create ~health () in
  let acc : (string, W5_obs.Span.t list) Hashtbl.t = Hashtbl.create 4 in
  let add_provider name =
    let platform = Platform.create () in
    (match Peer.add_provider mesh ~name platform with
    | Ok () -> ()
    | Error e -> invalid_arg e);
    (match Platform.signup platform ~user ~password:"pw" with
    | Ok _ -> ()
    | Error e -> invalid_arg e);
    Tracer.set_enabled (Kernel.tracer (Platform.kernel platform)) true
  in
  List.iter add_provider providers;
  let east = Option.get (Peer.provider mesh ~name:"east") in
  let west = Option.get (Peer.provider mesh ~name:"west") in
  (* the user's data, with a canary so tests can prove no telemetry
     view ever carries user bytes *)
  (match
     write_profile east
       ~fields:[ ("name", user); ("bio", List.nth canaries 0) ]
   with
  | Ok () -> ()
  | Error e -> invalid_arg (W5_os.Os_error.to_string e));
  (match Peer.link_user mesh ~user ~files:[ "profile" ] with
  | Ok () -> ()
  | Error e -> invalid_arg e);
  (* per-link fault plans: the mesh installed none, the script decides
     which edges are unreliable *)
  (match Peer.user_links mesh user with
  | Error e -> invalid_arg e
  | Ok links ->
      List.iter
        (fun link ->
          let a, b = Sync.sides link in
          match plan_for (a.Sync.provider_name ^ "~" ^ b.Sync.provider_name)
          with
          | Some plan -> Sync.set_faults link plan
          | None -> ())
        links);
  drain mesh acc;
  let notes = ref [] in
  let note line = notes := line :: !notes in
  for round = 1 to rounds do
    (* round 2 brings a concurrent edit into the faulty window *)
    if round = 2 then
      ignore
        (write_profile west
           ~fields:
             [ ("name", user); ("bio", List.nth canaries 1);
               ("home", "west") ]);
    (match Peer.sync_round mesh ~user with
    | Ok moved -> note (Printf.sprintf "round %d: ok, moved %d" round moved)
    | Error e -> note (Printf.sprintf "round %d: %s" round e));
    drain mesh acc
  done;
  let spans =
    List.map
      (fun name ->
        (name, Option.value (Hashtbl.find_opt acc name) ~default:[]))
      providers
  in
  (mesh, spans, List.rev !notes)

(* The byte-reproducible script behind `w5 trace --federated` and
   `w5 health`. Signup seeds a default profile on every provider, so
   the first east~south round takes the concurrent-edit merge path,
   which consults the fault plan six times: export_a(0), export_b(1,
   2, 3 — two drops, two visible retries with backoff), apply_a(4),
   apply_b(5 — crash after the apply, leaving a write-ahead intent
   that round 2 replays as sync.recover). east~west and west~south
   run clean. *)
let scripted_plan = function
  | "east~south" ->
      Some
        (Fault.scripted ~label:"east~south script"
           [ (1, Fault.Drop); (2, Fault.Drop); (5, Fault.Crash_after_apply) ])
  | _ -> None

(* Deterministic SLO traffic on east's gateway: the front page serves,
   a broken app (its handler never responds) burns error budget. *)
let drive_gateway east =
  let registry = Platform.registry east in
  (match
     App_registry.publish registry
       ~dev:(W5_difc.Principal.make W5_difc.Principal.Developer "probe")
       ~name:"oops" ~version:"1.0"
       ~source:(App_registry.Open_source "oops: a handler that never responds")
       (fun _ctx _env -> ())
   with
  | Ok _ -> ()
  | Error e -> invalid_arg e);
  for _ = 1 to 3 do
    ignore (Gateway.handler east (Request.make Request.GET "/"))
  done;
  for _ = 1 to 2 do
    ignore (Gateway.handler east (Request.make Request.GET "/app/probe/oops"))
  done

let run () =
  let mesh, spans, round_notes = run_mesh ~plan_for:scripted_plan ~rounds:4 () in
  let east = Option.get (Peer.provider mesh ~name:"east") in
  drive_gateway east;
  (* gateway spans are east-local noise for the federated story; the
     sync spans were drained before the traffic ran *)
  Tracer.clear (Kernel.tracer (Platform.kernel east));
  {
    mesh;
    spans;
    health_now = (fun name -> Kernel.tick (kernel_of mesh name));
    slo = Gateway.slo_of east;
    slo_now = Kernel.tick (Platform.kernel east);
    round_notes;
  }

let run_seeded ~seed =
  let plan_for = function
    | "east~south" -> Some (Fault.of_seed ~seed ())
    | "west~south" -> Some (Fault.of_seed ~seed:(seed + 1) ())
    | _ -> None
  in
  let mesh, spans, round_notes = run_mesh ~plan_for ~rounds:6 () in
  {
    mesh;
    spans;
    health_now = (fun name -> Kernel.tick (kernel_of mesh name));
    slo = Health.Slo.create ();
    slo_now = 0;
    round_notes;
  }
