def _block_8014(state, syscalls):
    r = state.regs.values
    memory = state.memory
    n = state.flag_n
    z = state.flag_z
    c = state.flag_c
    v = state.flag_v
    _a = r[2] + 0 & 4294967295
    r[1] = memory.read_word(_a & 4294967292)
    _t = r[1] + (r[4] << 2 & 4294967295) & 4294967295
    r[1] = _t
    _a = r[2] + 0 & 4294967295
    memory.write_word(_a & 4294967292, r[1])
    if not _block.valid:
        state.flag_n, state.flag_z, state.flag_c, state.flag_v = (n, z, c, v)
        state.instret += 3
        return 32800
    _t = r[4] - 1 & 4294967295
    r[4] = _t
    _t, c, v = _sub(r[4], 0)
    n = _t >> 31 & 1
    z = 1 if _t == 0 else 0
    state.flag_n, state.flag_z, state.flag_c, state.flag_v = (n, z, c, v)
    state.instret += 6
    return 32788 if z == 0 else 32812
