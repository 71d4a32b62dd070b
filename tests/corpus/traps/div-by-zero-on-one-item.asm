; `/` with a zero divisor as the only stack item: the underflow check
; comes first, so every engine traps StackUnderflow, not DivisionByZero.
entry:
    lit 0
    /
    halt
