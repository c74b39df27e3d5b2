(** Arrays of young values, built without forcing a minor collection.

    OCaml 5 allocates an array of more than 256 elements straight in the
    major heap, and [Array.make] runs a minor collection before it fills
    one with a young (minor-heap) value. [Array.of_list], [Array.init]
    and [Array.map] make their array from its first element, so they do
    the same, and each such collection promotes everything live at that
    moment (DESIGN.md §4).

    These builders fill the new array with [dummy] first and then store
    each element through the write barrier. [dummy] must never be young:
    an immediate, or a constant the compiler allocates statically (a
    literal record of constants, [[||]]). Elements are computed in index
    order, as the [Array] functions compute them. *)

val of_rev_list : dummy:'a -> int -> 'a list -> 'a array
(** [of_rev_list ~dummy n l] is [Array.of_list (List.rev l)], where [n]
    is [List.length l]. Raises [Invalid_argument] if it is not. *)

val of_list : dummy:'a -> 'a list -> 'a array
(** [Array.of_list]. *)

val map : dummy:'b -> ('a -> 'b) -> 'a array -> 'b array
(** [Array.map]. *)

val init : dummy:'a -> int -> (int -> 'a) -> 'a array
(** [Array.init]. *)
