def _block_800c(state, syscalls):
    r = state.regs.values
    memory = state.memory
    lt = state.flag_n
    gt = state.flag_c
    eq = state.flag_z
    _a = r[4] + 0 & 4294967295
    _t = memory.read_word(_a & 4294967292)
    r[6] = _t
    _a = r[6]
    _b = r[5]
    _t = _a + _b
    _t &= 4294967295
    r[6] = _t
    _a = r[4] + 0 & 4294967295
    memory.write_word(_a & 4294967292, r[6])
    if not _block.valid:
        state.flag_n = lt
        state.flag_c = gt
        state.flag_z = eq
        state.instret += 3
        return 32792
    r[5] = r[5] + -1 & 4294967295
    _a = r[5]
    _l = _a - 4294967296 if _a & 2147483648 else _a
    _r = 0
    lt = 1 if _l < _r else 0
    gt = 1 if _l > _r else 0
    eq = 1 if _l == _r else 0
    state.flag_n = lt
    state.flag_c = gt
    state.flag_z = eq
    state.instret += 6
    return 32780 if eq == 0 else 32804
