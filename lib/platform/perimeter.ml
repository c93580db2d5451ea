open W5_difc
open W5_os

type refusal =
  | No_rule of Tag.t
  | Refused_by of { tag : Tag.t; gate : string }
  | Gate_failed of { tag : Tag.t; gate : string; error : string }
  | Unknown_tag of Tag.t

let pp_refusal fmt = function
  | No_rule tag ->
      Format.fprintf fmt "no declassifier authorized for %a" Tag.pp tag
  | Refused_by { tag; gate } ->
      Format.fprintf fmt "declassifier %s refused export of %a" gate Tag.pp tag
  | Gate_failed { tag; gate; error } ->
      Format.fprintf fmt "declassifier %s failed on %a: %s" gate Tag.pp tag
        error
  | Unknown_tag tag -> Format.fprintf fmt "unowned tag %a" Tag.pp tag

let refusal_to_string r = Format.asprintf "%a" pp_refusal r

let viewer_owns viewer tag =
  match viewer with
  | Some account -> Account.owns_tag account tag
  | None -> false

let foreign_tags ~viewer (labels : Flow.labels) =
  Label.filter (fun t -> not (viewer_owns viewer t)) labels.Flow.secrecy

(* Ask [gate] to clear [tag] from the payload: run it from a transient
   perimeter process carrying the payload's current labels, so the
   gate (which inherits the caller's labels) sees exactly the taint it
   must clear. *)
let clear_tag platform ~viewer ~tag ~gate (data, labels) =
  let viewer_name =
    Option.map (fun (a : Account.t) -> a.Account.user) viewer
  in
  let arg = Declassifier.encode_arg ~viewer:viewer_name ~data in
  let invoked =
    Platform.with_ctx platform ~name:("perimeter:" ^ Tag.name tag) ~labels
      (fun ctx ->
        match Kernel.invoke_gate (Platform.kernel platform)
                ~caller:ctx.Kernel.proc ~name:gate ~arg
        with
        | Error _ as e -> e
        | Ok child -> Ok child.Proc.response)
  in
  match invoked with
  | Error e ->
      Error (Gate_failed { tag; gate; error = Os_error.to_string e })
  | Ok None -> Error (Refused_by { tag; gate })
  | Ok (Some (out, out_labels)) ->
      if Label.mem tag out_labels.Flow.secrecy then
        Error (Refused_by { tag; gate })
      else Ok (out, out_labels)

let export platform ?(source = 0) ~viewer ~data ~labels () =
  let kernel = Platform.kernel platform in
  let destination =
    match viewer with
    | Some (a : Account.t) -> a.Account.user ^ "'s browser"
    | None -> "anonymous client"
  in
  let t0 = Kernel.tick kernel in
  let finish decision =
    let verdict = match decision with Ok () -> "allow" | Error _ -> "deny" in
    W5_obs.Metrics.inc
      (W5_obs.Metrics.counter
         (Kernel.metrics kernel)
         "w5_exports_total"
         ~help:"Perimeter export attempts by decision")
      ~labels:[ ("decision", verdict) ];
    (* Export latency in logical ticks: declassifier gate invocations
       drive the clock, so a deny after three gate hops is visibly
       slower than a clean allow. *)
    W5_obs.Metrics.observe
      (W5_obs.Perf.latency
         (Kernel.metrics kernel)
         "w5_perimeter_export_ticks"
         ~help:"Logical ticks consumed per perimeter export check, by decision")
      ~labels:[ ("decision", verdict) ]
      (Kernel.tick kernel - t0);
    let tracer = Kernel.tracer kernel in
    if W5_obs.Tracer.enabled tracer then
      W5_obs.Tracer.event tracer ~tick:(Kernel.tick kernel)
        ~fields:
          [
            ("decision", verdict);
            ("secrecy", string_of_int (Label.cardinal labels.Flow.secrecy));
          ]
        "perimeter.export";
    Kernel.record kernel ~pid:source
      (Audit.Export_attempted { destination; labels; decision })
  in
  let rec clear_all (data, current_labels) budget =
    match Label.choose_opt (foreign_tags ~viewer current_labels) with
    | None -> Ok data
    | Some _ when budget = 0 ->
        (* Defensive: a misbehaving gate that keeps adding tags must
           not loop the perimeter forever. *)
        Error
          (Gate_failed
             {
               tag = Option.get (Label.choose_opt current_labels.Flow.secrecy);
               gate = "?";
               error = "perimeter iteration budget exhausted";
             })
    | Some tag -> (
        match Platform.owner_of_tag platform tag with
        | None -> Error (Unknown_tag tag)
        | Some owner -> (
            match
              Policy.declassifier_for owner.Account.policy ~tag
            with
            | None -> Error (No_rule tag)
            | Some gate -> (
                match
                  clear_tag platform ~viewer ~tag ~gate (data, current_labels)
                with
                | Error _ as e -> e
                | Ok next -> clear_all next (budget - 1))))
  in
  let budget = (2 * Label.cardinal labels.Flow.secrecy) + 4 in
  match clear_all (data, labels) budget with
  | Ok out ->
      finish (Ok ());
      Ok out
  | Error refusal ->
      finish (Error (Flow.Secrecy_violation (foreign_tags ~viewer labels)));
      Error refusal
