; The one overflowing floored division: i64::MIN by -1. Every engine
; wraps, so `/` leaves MIN and `mod` leaves 0; none may panic.
entry:
    lit -9223372036854775808
    lit -1
    /
    lit -9223372036854775808
    lit -1
    mod
    .
    .
    halt
