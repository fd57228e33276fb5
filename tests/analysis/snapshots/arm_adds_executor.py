def _exec(state):
    r = state.regs.values
    info = ExecInfo(True, 32772)
    _t, state.flag_c, state.flag_v = _add(r[2], r[3])
    state.flag_n = _t >> 31 & 1
    state.flag_z = 1 if _t == 0 else 0
    r[1] = _t
    state.pc = 32772
    return info
