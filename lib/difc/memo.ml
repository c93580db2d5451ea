type snapshot = { hits : int; misses : int }

let snapshots () = []
