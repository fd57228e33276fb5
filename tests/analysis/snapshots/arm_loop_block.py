def _block_8014(state, syscalls, limit):
    r = state.regs.values
    memory = state.memory
    pages = state.memory._pages
    n = state.flag_n
    z = state.flag_z
    c = state.flag_c
    v = state.flag_v
    _i = state.instret
    _last = limit - 6
    while True:
        _a = r[2] + 0 & 4294967295
        r[1] = _word(pages.get(_a >> 12, _zero), _a & 4092)[0]
        _t = r[1] + (r[4] << 2 & 4294967295) & 4294967295
        r[1] = _t
        _a = r[2] + 0 & 4294967295
        memory.write_word(_a & 4294967292, r[1])
        if not _block.valid:
            state.flag_n, state.flag_z, state.flag_c, state.flag_v = (n, z, c, v)
            state.instret = _i + 3
            return 32800
        _t = r[4] - 1 & 4294967295
        r[4] = _t
        _t, c, v = _sub(r[4], 0)
        n = _t >> 31 & 1
        z = 1 if _t == 0 else 0
        _i += 6
        if not z == 0 or _i > _last:
            break
    state.flag_n, state.flag_z, state.flag_c, state.flag_v = (n, z, c, v)
    state.instret = _i
    return 32788 if z == 0 else 32812
