let of_rev_list ~dummy n l =
  let a = Array.make n dummy in
  let rec fill i = function
    | [] -> if i <> -1 then invalid_arg "Heap_array.of_rev_list: length"
    | x :: rest ->
        if i < 0 then invalid_arg "Heap_array.of_rev_list: length";
        Array.unsafe_set a i x;
        fill (i - 1) rest
  in
  fill (n - 1) l;
  a

let of_list ~dummy l =
  let a = Array.make (List.length l) dummy in
  List.iteri (fun i x -> Array.unsafe_set a i x) l;
  a

let map ~dummy f src =
  let a = Array.make (Array.length src) dummy in
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set a i (f (Array.unsafe_get src i))
  done;
  a

let init ~dummy n f =
  let a = Array.make n dummy in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (f i)
  done;
  a
