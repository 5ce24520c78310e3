(** The algorithm binding the serve layer runs: the live runtime's
    {!Live.Binding}, under the names the serve modules use. *)

module type ALGO = Live.Binding.ALGO

module Rwwc = Live.Binding.Rwwc
