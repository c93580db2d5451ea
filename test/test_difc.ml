(* Unit + property tests for the DIFC core: tags, labels, capability
   sets, flow judgments, the safe-label-change rule. *)

open W5_difc

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* ---- helpers ---- *)

let s_tag name = Tag.fresh ~name Tag.Secrecy
let i_tag name = Tag.fresh ~name Tag.Integrity

let label_of_ints tags = Label.of_list tags

(* A pool of tags reused by the qcheck generators so that set
   operations actually collide. *)
let pool = Array.init 16 (fun i -> s_tag (Printf.sprintf "q%d" i))

let gen_label =
  QCheck.Gen.(
    map
      (fun picks ->
        label_of_ints (List.map (fun i -> pool.(i mod 16)) picks))
      (list_size (0 -- 8) (0 -- 15)))

let arb_label =
  QCheck.make gen_label ~print:(fun l -> Label.to_string l)

(* ---- tag tests ---- *)

let test_tag_identity () =
  let a = s_tag "same" and b = s_tag "same" in
  check bool_c "same name, distinct tags" false (Tag.equal a b);
  check bool_c "self equal" true (Tag.equal a a);
  check Alcotest.string "name kept" "same" (Tag.name a);
  check bool_c "kind" true (Tag.kind a = Tag.Secrecy);
  check bool_c "integrity kind" true (Tag.kind (i_tag "w") = Tag.Integrity)

let test_tag_restricted () =
  let plain = s_tag "plain" in
  let locked = Tag.fresh ~name:"locked" ~restricted:true Tag.Secrecy in
  check bool_c "plain not restricted" false (Tag.restricted plain);
  check bool_c "locked restricted" true (Tag.restricted locked)

let test_tag_ids_monotonic () =
  let a = s_tag "a" and b = s_tag "b" in
  check bool_c "ids increase" true (Tag.id b > Tag.id a)

(* ---- label tests ---- *)

let test_label_basics () =
  let a = s_tag "a" and b = s_tag "b" in
  let l = Label.of_list [ a; b; a ] in
  check int_c "dedup" 2 (Label.cardinal l);
  check bool_c "mem a" true (Label.mem a l);
  check bool_c "remove" false (Label.mem a (Label.remove a l));
  check bool_c "empty subset" true (Label.subset Label.empty l);
  check bool_c "not superset" false (Label.subset l (Label.singleton a))

let test_label_ops () =
  let a = s_tag "a" and b = s_tag "b" and c = s_tag "c" in
  let ab = Label.of_list [ a; b ] and bc = Label.of_list [ b; c ] in
  check int_c "union" 3 (Label.cardinal (Label.union ab bc));
  check int_c "inter" 1 (Label.cardinal (Label.inter ab bc));
  check bool_c "diff" true (Label.equal (Label.diff ab bc) (Label.singleton a))

(* qcheck: lattice laws *)
let prop_union_commutative =
  QCheck.Test.make ~name:"label union commutative" ~count:200
    (QCheck.pair arb_label arb_label) (fun (a, b) ->
      Label.equal (Label.union a b) (Label.union b a))

let prop_union_associative =
  QCheck.Test.make ~name:"label union associative" ~count:200
    (QCheck.triple arb_label arb_label arb_label) (fun (a, b, c) ->
      Label.equal
        (Label.union a (Label.union b c))
        (Label.union (Label.union a b) c))

let prop_union_idempotent =
  QCheck.Test.make ~name:"label union idempotent" ~count:200 arb_label
    (fun a -> Label.equal (Label.union a a) a)

let prop_subset_antisymmetric =
  QCheck.Test.make ~name:"subset antisymmetry" ~count:200
    (QCheck.pair arb_label arb_label) (fun (a, b) ->
      if Label.subset a b && Label.subset b a then Label.equal a b else true)

let prop_join_upper_bound =
  QCheck.Test.make ~name:"union is an upper bound" ~count:200
    (QCheck.pair arb_label arb_label) (fun (a, b) ->
      let j = Label.union a b in
      Label.subset a j && Label.subset b j)

let prop_meet_lower_bound =
  QCheck.Test.make ~name:"inter is a lower bound" ~count:200
    (QCheck.pair arb_label arb_label) (fun (a, b) ->
      let m = Label.inter a b in
      Label.subset m a && Label.subset m b)

let prop_absorption =
  QCheck.Test.make ~name:"lattice absorption" ~count:200
    (QCheck.pair arb_label arb_label) (fun (a, b) ->
      Label.equal (Label.union a (Label.inter a b)) a
      && Label.equal (Label.inter a (Label.union a b)) a)

(* ---- capability tests ---- *)

let test_capability_sets () =
  let t = s_tag "cap" in
  let o = Capability.Set.empty in
  check bool_c "no add" false (Capability.Set.can_add t o);
  let o = Capability.Set.add (Capability.make t Capability.Plus) o in
  check bool_c "add" true (Capability.Set.can_add t o);
  check bool_c "no drop" false (Capability.Set.can_drop t o);
  check bool_c "no dual" false (Capability.Set.has_dual t o);
  let o = Capability.Set.grant_dual t o in
  check bool_c "dual" true (Capability.Set.has_dual t o);
  check bool_c "addable" true (Label.mem t (Capability.Set.addable o));
  check bool_c "droppable" true (Label.mem t (Capability.Set.droppable o))

let test_capability_ordering () =
  let t = s_tag "ord" in
  let plus = Capability.make t Capability.Plus in
  let minus = Capability.make t Capability.Minus in
  check bool_c "plus <> minus" false (Capability.equal plus minus);
  check bool_c "tag" true (Tag.equal (Capability.tag plus) t);
  check bool_c "subset" true
    (Capability.Set.subset
       (Capability.Set.of_list [ plus ])
       (Capability.Set.of_list [ plus; minus ]))

(* ---- flow tests ---- *)

let labels ?(s = []) ?(i = []) () =
  Flow.make ~secrecy:(label_of_ints s) ~integrity:(label_of_ints i) ()

let test_flow_secrecy () =
  let a = s_tag "fa" in
  let tainted = labels ~s:[ a ] () in
  check bool_c "low to high" true (Flow.can_flow Flow.bottom tainted);
  check bool_c "high to low" false (Flow.can_flow tainted Flow.bottom);
  check bool_c "reflexive" true (Flow.can_flow tainted tainted)

let test_flow_integrity () =
  let w = i_tag "fw" in
  let vouched = labels ~i:[ w ] () in
  check bool_c "vouched to plain" true (Flow.can_flow vouched Flow.bottom);
  check bool_c "plain to vouched" false (Flow.can_flow Flow.bottom vouched)

let test_check_flow_explanations () =
  let a = s_tag "xa" and w = i_tag "xw" in
  (match Flow.check_flow (labels ~s:[ a ] ()) Flow.bottom with
  | Error (Flow.Secrecy_violation l) ->
      check bool_c "offending tag" true (Label.mem a l)
  | Ok () | Error _ -> Alcotest.fail "expected secrecy violation");
  match Flow.check_flow Flow.bottom (labels ~i:[ w ] ()) with
  | Error (Flow.Integrity_violation l) ->
      check bool_c "missing tag" true (Label.mem w l)
  | Ok () | Error _ -> Alcotest.fail "expected integrity violation"

let test_join () =
  let a = s_tag "ja" and b = s_tag "jb" in
  let w = i_tag "jw" and v = i_tag "jv" in
  let l1 = labels ~s:[ a ] ~i:[ w; v ] () in
  let l2 = labels ~s:[ b ] ~i:[ w ] () in
  let j = Flow.join l1 l2 in
  check int_c "secrecy unions" 2 (Label.cardinal j.Flow.secrecy);
  check int_c "integrity meets" 1 (Label.cardinal j.Flow.integrity)

let test_flow_with_caps () =
  let a = s_tag "wa" in
  let tainted = labels ~s:[ a ] () in
  let minus = Capability.Set.of_list [ Capability.make a Capability.Minus ] in
  let plus = Capability.Set.of_list [ Capability.make a Capability.Plus ] in
  check bool_c "src can declassify" true
    (Flow.can_flow_with ~src_caps:minus tainted Flow.bottom);
  check bool_c "dst can absorb" true
    (Flow.can_flow_with ~dst_caps:plus tainted Flow.bottom);
  check bool_c "no caps still blocked" false
    (Flow.can_flow_with tainted Flow.bottom)

let test_label_change_rule () =
  let a = s_tag "ca" in
  let dual = Capability.Set.grant_dual a Capability.Set.empty in
  let from = label_of_ints [ a ] in
  (* dropping with t- is fine *)
  check bool_c "drop with caps" true
    (Flow.check_label_change ~caps:dual ~old_label:from ~new_label:Label.empty
    = Ok ());
  (* dropping without caps is not *)
  (match
     Flow.check_label_change ~caps:Capability.Set.empty ~old_label:from
       ~new_label:Label.empty
   with
  | Error (Flow.Unauthorized_drop l) ->
      check bool_c "names dropped tag" true (Label.mem a l)
  | Ok () | Error _ -> Alcotest.fail "expected unauthorized drop");
  (* adding without caps is not *)
  match
    Flow.check_label_change ~caps:Capability.Set.empty ~old_label:Label.empty
      ~new_label:from
  with
  | Error (Flow.Unauthorized_add l) ->
      check bool_c "names added tag" true (Label.mem a l)
  | Ok () | Error _ -> Alcotest.fail "expected unauthorized add"

let test_export_blockers () =
  let a = s_tag "ea" and b = s_tag "eb" in
  let l = labels ~s:[ a; b ] () in
  let minus_a = Capability.Set.of_list [ Capability.make a Capability.Minus ] in
  let blockers = Flow.export_blockers ~caps:minus_a l in
  check bool_c "a clearable" false (Label.mem a blockers);
  check bool_c "b blocks" true (Label.mem b blockers)

(* qcheck: flow laws *)
let arb_flow_labels =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun s i ->
          Flow.make ~secrecy:s ~integrity:i ())
        gen_label gen_label)
    ~print:(fun l -> Format.asprintf "%a" Flow.pp_labels l)

let prop_flow_reflexive =
  QCheck.Test.make ~name:"flow reflexive" ~count:200 arb_flow_labels (fun l ->
      Flow.can_flow l l)

let prop_flow_transitive =
  QCheck.Test.make ~name:"flow transitive" ~count:500
    (QCheck.triple arb_flow_labels arb_flow_labels arb_flow_labels)
    (fun (a, b, c) ->
      if Flow.can_flow a b && Flow.can_flow b c then Flow.can_flow a c
      else true)

let prop_join_flows_from_both =
  QCheck.Test.make ~name:"both inputs flow to their join" ~count:200
    (QCheck.pair arb_flow_labels arb_flow_labels) (fun (a, b) ->
      let j = Flow.join a b in
      (* join keeps all secrecy, so a and b flow to it secrecy-wise;
         integrity-wise the join is the meet, which both dominate. *)
      Flow.can_flow a j && Flow.can_flow b j)

let prop_check_flow_agrees =
  QCheck.Test.make ~name:"check_flow agrees with can_flow" ~count:500
    (QCheck.pair arb_flow_labels arb_flow_labels) (fun (a, b) ->
      Flow.can_flow a b = (Flow.check_flow a b = Ok ()))

let prop_safe_change_no_caps_means_no_change =
  (* The generic rule needs a capability for every delta, in either
     direction; the anyone-may-taint convention is layered on in the
     syscall module, not here. *)
  QCheck.Test.make ~name:"no caps: no change allowed" ~count:500
    (QCheck.pair arb_label arb_label) (fun (old_label, new_label) ->
      match
        Flow.check_label_change ~caps:Capability.Set.empty ~old_label
          ~new_label
      with
      | Ok () -> Label.equal old_label new_label
      | Error _ -> not (Label.equal old_label new_label))

let prop_safe_change_dual_allows_anything =
  QCheck.Test.make ~name:"dual over pool: any change allowed" ~count:200
    (QCheck.pair arb_label arb_label) (fun (old_label, new_label) ->
      let caps =
        Array.fold_left
          (fun acc t -> Capability.Set.grant_dual t acc)
          Capability.Set.empty pool
      in
      Flow.check_label_change ~caps ~old_label ~new_label = Ok ())

(* ---- principal tests ---- *)

let test_principals () =
  let u = Principal.make Principal.End_user "u" in
  let d = Principal.make Principal.Developer "d" in
  check bool_c "distinct" false (Principal.equal u d);
  check bool_c "external" true
    (Principal.is_external (Principal.make Principal.External_client "c"));
  check bool_c "user not external" false (Principal.is_external u);
  check Alcotest.string "name" "u" (Principal.name u)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "tag identity" `Quick test_tag_identity;
    Alcotest.test_case "tag restricted flag" `Quick test_tag_restricted;
    Alcotest.test_case "tag ids monotonic" `Quick test_tag_ids_monotonic;
    Alcotest.test_case "label basics" `Quick test_label_basics;
    Alcotest.test_case "label ops" `Quick test_label_ops;
    Alcotest.test_case "capability sets" `Quick test_capability_sets;
    Alcotest.test_case "capability ordering" `Quick test_capability_ordering;
    Alcotest.test_case "flow secrecy" `Quick test_flow_secrecy;
    Alcotest.test_case "flow integrity" `Quick test_flow_integrity;
    Alcotest.test_case "flow explanations" `Quick test_check_flow_explanations;
    Alcotest.test_case "labels join" `Quick test_join;
    Alcotest.test_case "flow with caps" `Quick test_flow_with_caps;
    Alcotest.test_case "safe label change" `Quick test_label_change_rule;
    Alcotest.test_case "export blockers" `Quick test_export_blockers;
    Alcotest.test_case "principals" `Quick test_principals;
  ]
  @ qsuite
      [
        prop_union_commutative;
        prop_union_associative;
        prop_union_idempotent;
        prop_subset_antisymmetric;
        prop_join_upper_bound;
        prop_meet_lower_bound;
        prop_absorption;
        prop_flow_reflexive;
        prop_flow_transitive;
        prop_join_flows_from_both;
        prop_check_flow_agrees;
        prop_safe_change_no_caps_means_no_change;
        prop_safe_change_dual_allows_anything;
      ]

(* ---- pretty-printers and misc ---- *)

let test_pp_functions () =
  let t = s_tag "ppt" in
  let rendered = Format.asprintf "%a" Tag.pp t in
  check bool_c "tag pp mentions name" true
    (String.length rendered > 0
    &&
    let rec scan i =
      i + 3 <= String.length rendered
      && (String.sub rendered i 3 = "ppt" || scan (i + 1))
    in
    scan 0);
  let l = Label.of_list [ t ] in
  check bool_c "label pp braces" true (String.length (Label.to_string l) >= 2);
  check Alcotest.string "empty label" "{}" (Label.to_string Label.empty);
  let fl = Flow.make ~secrecy:l () in
  check bool_c "flow pp" true (String.length (Format.asprintf "%a" Flow.pp_labels fl) > 0);
  check bool_c "denial pp" true
    (String.length (Flow.denial_to_string (Flow.Secrecy_violation l)) > 0);
  let cap = Capability.make t Capability.Plus in
  check bool_c "cap pp ends with +" true
    (let s = Format.asprintf "%a" Capability.pp cap in
     String.length s > 0 && s.[String.length s - 1] = '+')

let test_principal_collections () =
  let a = Principal.make Principal.End_user "a" in
  let b = Principal.make Principal.End_user "b" in
  let set = Principal.Set.of_list [ a; b; a ] in
  check int_c "set dedup" 2 (Principal.Set.cardinal set);
  let map = Principal.Map.singleton a 1 in
  check (Alcotest.option int_c) "map" (Some 1) (Principal.Map.find_opt a map);
  check (Alcotest.option int_c) "map miss" None (Principal.Map.find_opt b map)

let test_capability_addable_droppable () =
  let t1 = s_tag "ad1" and t2 = s_tag "ad2" in
  let o =
    Capability.Set.of_list
      [ Capability.make t1 Capability.Plus; Capability.make t2 Capability.Minus ]
  in
  check bool_c "addable has t1" true (Label.mem t1 (Capability.Set.addable o));
  check bool_c "addable lacks t2" false (Label.mem t2 (Capability.Set.addable o));
  check bool_c "droppable has t2" true (Label.mem t2 (Capability.Set.droppable o));
  check int_c "cardinal" 2 (Capability.Set.cardinal o);
  check bool_c "set equal" true
    (Capability.Set.equal o (Capability.Set.of_list (Capability.Set.to_list o)))

let test_tag_of_id () =
  let t = s_tag "ofid" in
  (match Tag.of_id (Tag.id t) with
  | Some t' -> check bool_c "roundtrip" true (Tag.equal t t')
  | None -> Alcotest.fail "lost tag");
  check bool_c "unknown id" true (Tag.of_id max_int = None)

let suite =
  suite
  @ [
      Alcotest.test_case "pretty printers" `Quick test_pp_functions;
      Alcotest.test_case "principal collections" `Quick test_principal_collections;
      Alcotest.test_case "capability addable/droppable" `Quick
        test_capability_addable_droppable;
      Alcotest.test_case "tag of_id" `Quick test_tag_of_id;
    ]

(* ---- flow misc ---- *)

let test_flow_helpers () =
  let a = s_tag "fh" in
  let l = labels ~s:[ a ] () in
  check bool_c "equal_labels reflexive" true (Flow.equal_labels l l);
  check bool_c "not equal to bottom" false (Flow.equal_labels l Flow.bottom);
  let raised = Flow.raise_secrecy (label_of_ints [ a ]) Flow.bottom in
  check bool_c "raise adds" true (Label.mem a raised.Flow.secrecy);
  check bool_c "make defaults" true (Flow.equal_labels (Flow.make ()) Flow.bottom)

let test_flow_with_caps_integrity () =
  let w = i_tag "fwi" in
  let vouched_sink = labels ~i:[ w ] () in
  (* a plain source cannot satisfy the sink's integrity demand *)
  check bool_c "blocked" false (Flow.can_flow_with Flow.bottom vouched_sink);
  (* unless the source can endorse (t+)... *)
  let plus = Capability.Set.of_list [ Capability.make w Capability.Plus ] in
  check bool_c "src endorses" true
    (Flow.can_flow_with ~src_caps:plus Flow.bottom vouched_sink);
  (* ...or the sink can waive the requirement (t-) *)
  let minus = Capability.Set.of_list [ Capability.make w Capability.Minus ] in
  check bool_c "dst waives" true
    (Flow.can_flow_with ~dst_caps:minus Flow.bottom vouched_sink)

let test_label_iterators () =
  let a = s_tag "li1" and b = s_tag "li2" in
  let l = Label.of_list [ a; b ] in
  check bool_c "exists" true (Label.exists (fun t -> Tag.equal t a) l);
  check bool_c "for_all" false (Label.for_all (fun t -> Tag.equal t a) l);
  check int_c "filter" 1 (Label.cardinal (Label.filter (fun t -> Tag.equal t b) l));
  check bool_c "choose" true (Label.choose_opt l <> None);
  check bool_c "choose empty" true (Label.choose_opt Label.empty = None);
  let count = Label.fold (fun _ acc -> acc + 1) l 0 in
  check int_c "fold" 2 count;
  let seen = ref 0 in
  Label.iter (fun _ -> incr seen) l;
  check int_c "iter" 2 !seen

let suite =
  suite
  @ [
      Alcotest.test_case "flow helpers" `Quick test_flow_helpers;
      Alcotest.test_case "flow_with_caps integrity" `Quick
        test_flow_with_caps_integrity;
      Alcotest.test_case "label iterators" `Quick test_label_iterators;
    ]

let test_check_labels_change_both_lattices () =
  let s = s_tag "clc.s" and w = i_tag "clc.w" in
  let old_labels = labels ~s:[ s ] ~i:[] () in
  let new_labels = labels ~s:[] ~i:[ w ] () in
  (* needs s- AND w+ *)
  (match
     Flow.check_labels_change ~caps:Capability.Set.empty ~old_labels ~new_labels
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unauthorized double change");
  let caps =
    Capability.Set.of_list
      [ Capability.make s Capability.Minus; Capability.make w Capability.Plus ]
  in
  check bool_c "with both caps" true
    (Flow.check_labels_change ~caps ~old_labels ~new_labels = Ok ());
  (* secrecy ok but integrity missing: fails on the second lattice *)
  let caps_s_only =
    Capability.Set.of_list [ Capability.make s Capability.Minus ]
  in
  match Flow.check_labels_change ~caps:caps_s_only ~old_labels ~new_labels with
  | Error (Flow.Unauthorized_add l) -> check bool_c "names w" true (Label.mem w l)
  | Ok () | Error _ -> Alcotest.fail "expected integrity add denial"

let suite =
  suite
  @ [
      Alcotest.test_case "check_labels_change both lattices" `Quick
        test_check_labels_change_both_lattices;
    ]

let prop_label_compare_consistent =
  QCheck.Test.make ~name:"label compare agrees with equal" ~count:300
    (QCheck.pair arb_label arb_label) (fun (a, b) ->
      (Label.compare a b = 0) = Label.equal a b)

let suite = suite @ qsuite [ prop_label_compare_consistent ]

(* ---- differential: the library against the sorted-list model ----

   Every operation the flow and safe-label-change rules are built from
   must agree with [Label_ref] on arbitrary labels. The generators'
   0–8-tag labels over a 16-tag pool overlap often enough that subset,
   equality and permitted flows are all exercised on their true side
   too; the rebuilt copy [a'] is equal to [a] without being [==]. *)

let prop_agrees_with_model =
  QCheck.Test.make ~name:"label algebra agrees with list model" ~count:300
    (QCheck.quad arb_label arb_label arb_flow_labels arb_flow_labels)
    (fun (a, b, p, q) ->
      let module R = Label_ref in
      let m = R.of_label in
      let ra = m a and rb = m b in
      let a' = Label.of_list (List.rev (Label.to_list a)) in
      let sign x = Int.compare x 0 in
      let even t = Tag.id t land 1 = 0 in
      let rp = R.of_labels p and rq = R.of_labels q in
      let pq = Flow.join p q and rpq = R.join rp rq in
      R.equal (m (Label.union a b)) (R.union ra rb)
      && R.equal (m (Label.inter a b)) (R.inter ra rb)
      && R.equal (m (Label.diff a b)) (R.diff ra rb)
      && Label.subset a b = R.subset ra rb
      && Label.subset b a = R.subset rb ra
      && Label.subset a (Label.union a b) = R.subset ra (R.union ra rb)
      && Array.for_all (fun t -> Label.mem t a = R.mem (Tag.id t) ra) pool
      && Label.cardinal a = R.cardinal ra
      && Label.equal a b = R.equal ra rb
      && Label.equal a a' = R.equal ra (m a')
      && sign (Label.compare a b) = sign (R.compare ra rb)
      && sign (Label.compare a a') = sign (R.compare ra (m a'))
      && R.equal (m (Label.filter even a))
           (R.filter (fun i -> i land 1 = 0) ra)
      && R.of_labels pq = rpq
      && Flow.can_flow p q = R.can_flow rp rq
      && Flow.can_flow p pq = R.can_flow rp rpq
      && Result.is_ok (Flow.check_flow p q) = R.can_flow rp rq)

let suite = suite @ qsuite [ prop_agrees_with_model ]
