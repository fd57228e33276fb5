def _block_800c(state, syscalls, limit, _block):
    r = state.regs.values
    memory = state.memory
    pages = state.memory._pages
    lt = state.flag_n
    gt = state.flag_c
    eq = state.flag_z
    _i = state.instret
    _last = limit - 6
    while True:
        _a = r[4] + 0 & 4294967295
        _t = _word(pages.get(_a >> 12, _zero), _a & 4092)[0]
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
            state.instret = _i + 3
            return 32792
        r[5] = r[5] + -1 & 4294967295
        _a = r[5]
        _l = _a - 4294967296 if _a & 2147483648 else _a
        _r = 0
        lt = 1 if _l < _r else 0
        gt = 1 if _l > _r else 0
        eq = 1 if _l == _r else 0
        _i += 6
        if not eq == 0 or _i > _last:
            break
    state.flag_n = lt
    state.flag_c = gt
    state.flag_z = eq
    state.instret = _i
    return 32780 if eq == 0 else 32804
