type labels = {
  secrecy : Label.t;
  integrity : Label.t;
}

let bottom = { secrecy = Label.empty; integrity = Label.empty }

let make ?(secrecy = Label.empty) ?(integrity = Label.empty) () =
  { secrecy; integrity }

let equal_labels a b =
  Label.equal a.secrecy b.secrecy && Label.equal a.integrity b.integrity

let pp_labels fmt l =
  Format.fprintf fmt "S=%a I=%a" Label.pp l.secrecy Label.pp l.integrity

let join a b =
  {
    secrecy = Label.union a.secrecy b.secrecy;
    integrity = Label.inter a.integrity b.integrity;
  }

type denial =
  | Secrecy_violation of Label.t
  | Integrity_violation of Label.t
  | Unauthorized_add of Label.t
  | Unauthorized_drop of Label.t

let pp_denial fmt = function
  | Secrecy_violation l ->
      Format.fprintf fmt "secrecy violation: tags %a would leak" Label.pp l
  | Integrity_violation l ->
      Format.fprintf fmt "integrity violation: tags %a not vouched" Label.pp l
  | Unauthorized_add l ->
      Format.fprintf fmt "unauthorized label addition of %a" Label.pp l
  | Unauthorized_drop l ->
      Format.fprintf fmt "unauthorized label drop of %a" Label.pp l

let denial_to_string d = Format.asprintf "%a" pp_denial d

let can_flow src dst =
  Label.subset src.secrecy dst.secrecy
  && Label.subset dst.integrity src.integrity

let check_flow src dst =
  (* Denials are the rare path; only they pay for the explanatory
     diffs. *)
  if can_flow src dst then Ok ()
  else
    let secrecy_excess = Label.diff src.secrecy dst.secrecy in
    if not (Label.is_empty secrecy_excess) then
      Error (Secrecy_violation secrecy_excess)
    else
      let integrity_missing = Label.diff dst.integrity src.integrity in
      if not (Label.is_empty integrity_missing) then
        Error (Integrity_violation integrity_missing)
      else Ok ()

let can_flow_with ?(src_caps = Capability.Set.empty)
    ?(dst_caps = Capability.Set.empty) src dst =
  (* A tag blocks the secrecy condition only if the source cannot drop
     it and the destination cannot add it. Dually, an integrity tag
     required by the destination is satisfiable if the destination can
     drop the requirement or the source could endorse for it. *)
  let secrecy_ok =
    Label.for_all
      (fun t ->
        Label.mem t dst.secrecy
        || Capability.Set.can_drop t src_caps
        || Capability.Set.can_add t dst_caps)
      src.secrecy
  in
  let integrity_ok =
    Label.for_all
      (fun t ->
        Label.mem t src.integrity
        || Capability.Set.can_add t src_caps
        || Capability.Set.can_drop t dst_caps)
      dst.integrity
  in
  secrecy_ok && integrity_ok

let check_label_change ~caps ~old_label ~new_label =
  let added = Label.diff new_label old_label in
  let dropped = Label.diff old_label new_label in
  if Capability.Set.is_empty caps then
    (* No capabilities authorize no change: every added or dropped tag
       is a violation, no per-tag probes needed. *)
    if not (Label.is_empty added) then Error (Unauthorized_add added)
    else if not (Label.is_empty dropped) then Error (Unauthorized_drop dropped)
    else Ok ()
  else
    let bad_adds =
      Label.filter (fun t -> not (Capability.Set.can_add t caps)) added
    in
    if not (Label.is_empty bad_adds) then Error (Unauthorized_add bad_adds)
    else
      let bad_drops =
        Label.filter (fun t -> not (Capability.Set.can_drop t caps)) dropped
      in
      if not (Label.is_empty bad_drops) then Error (Unauthorized_drop bad_drops)
      else Ok ()

let check_labels_change ~caps ~old_labels ~new_labels =
  match
    check_label_change ~caps ~old_label:old_labels.secrecy
      ~new_label:new_labels.secrecy
  with
  | Error _ as e -> e
  | Ok () ->
      check_label_change ~caps ~old_label:old_labels.integrity
        ~new_label:new_labels.integrity

let raise_secrecy taint l = { l with secrecy = Label.union taint l.secrecy }

let export_blockers ~caps l =
  if Capability.Set.is_empty caps then l.secrecy
  else Label.filter (fun t -> not (Capability.Set.can_drop t caps)) l.secrecy
