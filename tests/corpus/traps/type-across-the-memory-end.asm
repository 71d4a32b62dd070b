; `type` of ten bytes from two before the end of the 256-byte memory:
; every engine writes the last two bytes ("Hi"), then traps
; MemoryOutOfBounds at address 256, the first one past the end.
entry:
    lit 72
    lit 254
    c!
    lit 105
    lit 255
    c!
    lit 254
    lit 10
    type
    halt
