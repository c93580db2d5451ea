let fold ~ci c = if ci then Char.lowercase_ascii c else c

(* [needle] from [k] on matches [hay] from [i + k] on; the caller keeps
   [i + String.length needle <= String.length hay]. *)
let rec rest_matches ~ci hay i needle k =
  k = String.length needle
  || fold ~ci (String.unsafe_get hay (i + k))
     = fold ~ci (String.unsafe_get needle k)
     && rest_matches ~ci hay i needle (k + 1)

let rec scan ~ci hay needle first last i =
  if i > last then None
  else if
    fold ~ci (String.unsafe_get hay i) = first
    && rest_matches ~ci hay i needle 1
  then Some i
  else scan ~ci hay needle first last (i + 1)

let search ~ci ?(from = 0) hay needle =
  if from < 0 then invalid_arg "Substring.find: negative offset";
  let last = String.length hay - String.length needle in
  if needle = "" then if from <= String.length hay then Some from else None
  else scan ~ci hay needle (fold ~ci needle.[0]) last from

let find ?from hay needle = search ~ci:false ?from hay needle
let find_ci ?from hay needle = search ~ci:true ?from hay needle
let contains hay needle = Option.is_some (find hay needle)
