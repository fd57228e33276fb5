def _fused_step(osm, clock, mgr_1=mgr_1, doomed_2=doomed_2, edge_6=edge_6, dst_7=dst_7, action_8=action_8, cls_11=cls_11, mgr_12=mgr_12, producers_14=producers_14, mgr_21=mgr_21, slot_tok_23=slot_tok_23, mgr_24=mgr_24, pool_26=pool_26, pool_33=pool_33, pool_34=pool_34, pool_35=pool_35, pool_36=pool_36, order_38=order_38, edge_41=edge_41, dst_42=dst_42, action_43=action_43, mgr_53=mgr_53, slot_tok_55=slot_tok_55, edge_66=edge_66, action_67=action_67, mgr_77=mgr_77, slot_tok_79=slot_tok_79, edge_90=edge_90, action_91=action_91, mgr_101=mgr_101, slot_tok_103=slot_tok_103, edge_114=edge_114, action_115=action_115, mgr_125=mgr_125, slot_tok_127=slot_tok_127, edge_138=edge_138, action_139=action_139, mgr_149=mgr_149, slot_tok_151=slot_tok_151, edge_162=edge_162, action_163=action_163, edge_184=edge_184, action_185=action_185, mgr_188=mgr_188, pool_190=pool_190, edge_202=edge_202, dst_203=dst_203, action_204=action_204, mgr_207=mgr_207, pool_209=pool_209, edge_221=edge_221, action_222=action_222, mgr_225=mgr_225, pool_227=pool_227, edge_239=edge_239, action_240=action_240, mgr_243=mgr_243, pool_245=pool_245, edge_257=edge_257, action_258=action_258, mgr_261=mgr_261, pool_263=pool_263, edge_275=edge_275, action_276=action_276, mgr_279=mgr_279, pool_281=pool_281, edge_293=edge_293, action_294=action_294):
    osm.blocked_on = None
    buffer = osm.token_buffer
    while True:
        if id(osm) not in doomed_2:
            osm.blocked_on = (mgr_1, None)
            break
        mgr_1.n_inquiries += 1
        d1l3 = list(buffer.items())
        for _ds4, _dt5 in d1l3:
            del buffer[_ds4]
            _dt5.holder = None
            _dt5.manager.on_discard(osm, _dt5)
        osm.current = dst_7
        osm.last_edge = edge_6
        osm.n_transitions += 1
        action_8(osm)
        if buffer:
            raise TokenError('%s: returned to initial state still holding %s' % (osm.name, sorted(buffer)))
        osm.operation = None
        osm.age = -1
        return edge_6
    while True:
        if osm.operation.instr.unit != 'iu1':
            break
        r1t9 = buffer.get('fq')
        if r1t9 is not None:
            r1m10 = r1t9.manager
            if type(r1m10) is cls_11:
                if r1t9.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m10.name, osm, r1t9))
                if r1m10._hold_release or r1m10._released_this_cycle >= r1m10.width or (not r1m10._order) or (r1m10._order[0] is not osm):
                    osm.blocked_on = (r1m10, 'fq')
                    break
            elif not r1m10.release(osm, r1t9, osm._txn):
                osm.blocked_on = (r1m10, 'fq')
                break
        i2v13 = osm.operation.instr.src_regs
        if i2v13 is not None:
            if not isinstance(i2v13, (list, tuple)):
                if isinstance(i2v13, int):
                    _rc16 = producers_14[i2v13]
                    _rok15 = not _rc16 or _rc16[-1] is None or _rc16[-1].done
                else:
                    _rok15 = i2v13.done
                if not _rok15:
                    osm.blocked_on = (mgr_12, i2v13)
                    break
                mgr_12.n_inquiries += 1
            else:
                i2ok17 = True
                for i2s18 in i2v13:
                    if isinstance(i2s18, int):
                        _rc20 = producers_14[i2s18]
                        _rok19 = not _rc20 or _rc20[-1] is None or _rc20[-1].done
                    else:
                        _rok19 = i2s18.done
                    if not _rok19:
                        osm.blocked_on = (mgr_12, i2s18)
                        i2ok17 = False
                        break
                    mgr_12.n_inquiries += 1
                if not i2ok17:
                    break
        a3t22 = slot_tok_23 if slot_tok_23.holder is None else None
        if a3t22 is None:
            osm.blocked_on = (mgr_21, None)
            break
        a4t25 = None
        if mgr_24._n_free != 0:
            for _pt27 in pool_26:
                if _pt27.holder is None:
                    a4t25 = _pt27
                    break
        if a4t25 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m5l28 = []
        m5ok29 = True
        for m5i30 in osm.operation.instr.dst_regs or ():
            if not isinstance(m5i30, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m5i30))
            if m5i30 < 32:
                _rp32 = pool_33
            elif m5i30 == 32:
                _rp32 = pool_34
            elif m5i30 == 33:
                _rp32 = pool_35
            elif m5i30 == 34:
                _rp32 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m5i30,))
            m5t31 = None
            for _rt37 in _rp32:
                if _rt37.holder is None and _rt37 not in m5l28:
                    _rt37.value = m5i30
                    m5t31 = _rt37
                    break
            if m5t31 is None:
                osm.blocked_on = (mgr_12, m5i30)
                m5ok29 = False
                break
            m5l28.append(m5t31)
        if not m5ok29:
            break
        if r1t9 is not None:
            del buffer['fq']
            r1t9.holder = None
            if type(r1m10) is cls_11:
                r1m10.n_releases += 1
                r1m10._n_free += 1
                r1m10._order.remove(osm)
                r1m10._released_this_cycle += 1
                if r1m10._order and r1m10._released_this_cycle < r1m10.width:
                    r1m10._order[0]._asleep = False
            else:
                r1m10.on_release_commit(osm, r1t9, None)
        a3t22.holder = osm
        buffer['unit'] = a3t22
        mgr_21.n_allocates += 1
        a4t25.holder = osm
        buffer['cq'] = a4t25
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi39, _gt40 in enumerate(m5l28):
            _gt40.holder = osm
            buffer['ren' + str(_gi39)] = _gt40
            mgr_12.n_allocates += 1
            producers_14[_gt40.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_41
        osm.n_transitions += 1
        action_43(osm)
        return edge_41
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        r1t44 = buffer.get('fq')
        if r1t44 is not None:
            r1m45 = r1t44.manager
            if type(r1m45) is cls_11:
                if r1t44.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m45.name, osm, r1t44))
                if r1m45._hold_release or r1m45._released_this_cycle >= r1m45.width or (not r1m45._order) or (r1m45._order[0] is not osm):
                    osm.blocked_on = (r1m45, 'fq')
                    break
            elif not r1m45.release(osm, r1t44, osm._txn):
                osm.blocked_on = (r1m45, 'fq')
                break
        i2v46 = osm.operation.instr.src_regs
        if i2v46 is not None:
            if not isinstance(i2v46, (list, tuple)):
                if isinstance(i2v46, int):
                    _rc48 = producers_14[i2v46]
                    _rok47 = not _rc48 or _rc48[-1] is None or _rc48[-1].done
                else:
                    _rok47 = i2v46.done
                if not _rok47:
                    osm.blocked_on = (mgr_12, i2v46)
                    break
                mgr_12.n_inquiries += 1
            else:
                i2ok49 = True
                for i2s50 in i2v46:
                    if isinstance(i2s50, int):
                        _rc52 = producers_14[i2s50]
                        _rok51 = not _rc52 or _rc52[-1] is None or _rc52[-1].done
                    else:
                        _rok51 = i2s50.done
                    if not _rok51:
                        osm.blocked_on = (mgr_12, i2s50)
                        i2ok49 = False
                        break
                    mgr_12.n_inquiries += 1
                if not i2ok49:
                    break
        a3t54 = slot_tok_55 if slot_tok_55.holder is None else None
        if a3t54 is None:
            osm.blocked_on = (mgr_53, None)
            break
        a4t56 = None
        if mgr_24._n_free != 0:
            for _pt57 in pool_26:
                if _pt57.holder is None:
                    a4t56 = _pt57
                    break
        if a4t56 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m5l58 = []
        m5ok59 = True
        for m5i60 in osm.operation.instr.dst_regs or ():
            if not isinstance(m5i60, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m5i60))
            if m5i60 < 32:
                _rp62 = pool_33
            elif m5i60 == 32:
                _rp62 = pool_34
            elif m5i60 == 33:
                _rp62 = pool_35
            elif m5i60 == 34:
                _rp62 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m5i60,))
            m5t61 = None
            for _rt63 in _rp62:
                if _rt63.holder is None and _rt63 not in m5l58:
                    _rt63.value = m5i60
                    m5t61 = _rt63
                    break
            if m5t61 is None:
                osm.blocked_on = (mgr_12, m5i60)
                m5ok59 = False
                break
            m5l58.append(m5t61)
        if not m5ok59:
            break
        if r1t44 is not None:
            del buffer['fq']
            r1t44.holder = None
            if type(r1m45) is cls_11:
                r1m45.n_releases += 1
                r1m45._n_free += 1
                r1m45._order.remove(osm)
                r1m45._released_this_cycle += 1
                if r1m45._order and r1m45._released_this_cycle < r1m45.width:
                    r1m45._order[0]._asleep = False
            else:
                r1m45.on_release_commit(osm, r1t44, None)
        a3t54.holder = osm
        buffer['unit'] = a3t54
        mgr_53.n_allocates += 1
        a4t56.holder = osm
        buffer['cq'] = a4t56
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi64, _gt65 in enumerate(m5l58):
            _gt65.holder = osm
            buffer['ren' + str(_gi64)] = _gt65
            mgr_12.n_allocates += 1
            producers_14[_gt65.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_66
        osm.n_transitions += 1
        action_67(osm)
        return edge_66
    while True:
        if osm.operation.instr.unit != 'sru':
            break
        r1t68 = buffer.get('fq')
        if r1t68 is not None:
            r1m69 = r1t68.manager
            if type(r1m69) is cls_11:
                if r1t68.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m69.name, osm, r1t68))
                if r1m69._hold_release or r1m69._released_this_cycle >= r1m69.width or (not r1m69._order) or (r1m69._order[0] is not osm):
                    osm.blocked_on = (r1m69, 'fq')
                    break
            elif not r1m69.release(osm, r1t68, osm._txn):
                osm.blocked_on = (r1m69, 'fq')
                break
        i2v70 = osm.operation.instr.src_regs
        if i2v70 is not None:
            if not isinstance(i2v70, (list, tuple)):
                if isinstance(i2v70, int):
                    _rc72 = producers_14[i2v70]
                    _rok71 = not _rc72 or _rc72[-1] is None or _rc72[-1].done
                else:
                    _rok71 = i2v70.done
                if not _rok71:
                    osm.blocked_on = (mgr_12, i2v70)
                    break
                mgr_12.n_inquiries += 1
            else:
                i2ok73 = True
                for i2s74 in i2v70:
                    if isinstance(i2s74, int):
                        _rc76 = producers_14[i2s74]
                        _rok75 = not _rc76 or _rc76[-1] is None or _rc76[-1].done
                    else:
                        _rok75 = i2s74.done
                    if not _rok75:
                        osm.blocked_on = (mgr_12, i2s74)
                        i2ok73 = False
                        break
                    mgr_12.n_inquiries += 1
                if not i2ok73:
                    break
        a3t78 = slot_tok_79 if slot_tok_79.holder is None else None
        if a3t78 is None:
            osm.blocked_on = (mgr_77, None)
            break
        a4t80 = None
        if mgr_24._n_free != 0:
            for _pt81 in pool_26:
                if _pt81.holder is None:
                    a4t80 = _pt81
                    break
        if a4t80 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m5l82 = []
        m5ok83 = True
        for m5i84 in osm.operation.instr.dst_regs or ():
            if not isinstance(m5i84, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m5i84))
            if m5i84 < 32:
                _rp86 = pool_33
            elif m5i84 == 32:
                _rp86 = pool_34
            elif m5i84 == 33:
                _rp86 = pool_35
            elif m5i84 == 34:
                _rp86 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m5i84,))
            m5t85 = None
            for _rt87 in _rp86:
                if _rt87.holder is None and _rt87 not in m5l82:
                    _rt87.value = m5i84
                    m5t85 = _rt87
                    break
            if m5t85 is None:
                osm.blocked_on = (mgr_12, m5i84)
                m5ok83 = False
                break
            m5l82.append(m5t85)
        if not m5ok83:
            break
        if r1t68 is not None:
            del buffer['fq']
            r1t68.holder = None
            if type(r1m69) is cls_11:
                r1m69.n_releases += 1
                r1m69._n_free += 1
                r1m69._order.remove(osm)
                r1m69._released_this_cycle += 1
                if r1m69._order and r1m69._released_this_cycle < r1m69.width:
                    r1m69._order[0]._asleep = False
            else:
                r1m69.on_release_commit(osm, r1t68, None)
        a3t78.holder = osm
        buffer['unit'] = a3t78
        mgr_77.n_allocates += 1
        a4t80.holder = osm
        buffer['cq'] = a4t80
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi88, _gt89 in enumerate(m5l82):
            _gt89.holder = osm
            buffer['ren' + str(_gi88)] = _gt89
            mgr_12.n_allocates += 1
            producers_14[_gt89.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_90
        osm.n_transitions += 1
        action_91(osm)
        return edge_90
    while True:
        if osm.operation.instr.unit != 'lsu':
            break
        r1t92 = buffer.get('fq')
        if r1t92 is not None:
            r1m93 = r1t92.manager
            if type(r1m93) is cls_11:
                if r1t92.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m93.name, osm, r1t92))
                if r1m93._hold_release or r1m93._released_this_cycle >= r1m93.width or (not r1m93._order) or (r1m93._order[0] is not osm):
                    osm.blocked_on = (r1m93, 'fq')
                    break
            elif not r1m93.release(osm, r1t92, osm._txn):
                osm.blocked_on = (r1m93, 'fq')
                break
        i2v94 = osm.operation.instr.src_regs
        if i2v94 is not None:
            if not isinstance(i2v94, (list, tuple)):
                if isinstance(i2v94, int):
                    _rc96 = producers_14[i2v94]
                    _rok95 = not _rc96 or _rc96[-1] is None or _rc96[-1].done
                else:
                    _rok95 = i2v94.done
                if not _rok95:
                    osm.blocked_on = (mgr_12, i2v94)
                    break
                mgr_12.n_inquiries += 1
            else:
                i2ok97 = True
                for i2s98 in i2v94:
                    if isinstance(i2s98, int):
                        _rc100 = producers_14[i2s98]
                        _rok99 = not _rc100 or _rc100[-1] is None or _rc100[-1].done
                    else:
                        _rok99 = i2s98.done
                    if not _rok99:
                        osm.blocked_on = (mgr_12, i2s98)
                        i2ok97 = False
                        break
                    mgr_12.n_inquiries += 1
                if not i2ok97:
                    break
        a3t102 = slot_tok_103 if slot_tok_103.holder is None else None
        if a3t102 is None:
            osm.blocked_on = (mgr_101, None)
            break
        a4t104 = None
        if mgr_24._n_free != 0:
            for _pt105 in pool_26:
                if _pt105.holder is None:
                    a4t104 = _pt105
                    break
        if a4t104 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m5l106 = []
        m5ok107 = True
        for m5i108 in osm.operation.instr.dst_regs or ():
            if not isinstance(m5i108, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m5i108))
            if m5i108 < 32:
                _rp110 = pool_33
            elif m5i108 == 32:
                _rp110 = pool_34
            elif m5i108 == 33:
                _rp110 = pool_35
            elif m5i108 == 34:
                _rp110 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m5i108,))
            m5t109 = None
            for _rt111 in _rp110:
                if _rt111.holder is None and _rt111 not in m5l106:
                    _rt111.value = m5i108
                    m5t109 = _rt111
                    break
            if m5t109 is None:
                osm.blocked_on = (mgr_12, m5i108)
                m5ok107 = False
                break
            m5l106.append(m5t109)
        if not m5ok107:
            break
        if r1t92 is not None:
            del buffer['fq']
            r1t92.holder = None
            if type(r1m93) is cls_11:
                r1m93.n_releases += 1
                r1m93._n_free += 1
                r1m93._order.remove(osm)
                r1m93._released_this_cycle += 1
                if r1m93._order and r1m93._released_this_cycle < r1m93.width:
                    r1m93._order[0]._asleep = False
            else:
                r1m93.on_release_commit(osm, r1t92, None)
        a3t102.holder = osm
        buffer['unit'] = a3t102
        mgr_101.n_allocates += 1
        a4t104.holder = osm
        buffer['cq'] = a4t104
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi112, _gt113 in enumerate(m5l106):
            _gt113.holder = osm
            buffer['ren' + str(_gi112)] = _gt113
            mgr_12.n_allocates += 1
            producers_14[_gt113.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_114
        osm.n_transitions += 1
        action_115(osm)
        return edge_114
    while True:
        if osm.operation.instr.unit != 'fpu':
            break
        r1t116 = buffer.get('fq')
        if r1t116 is not None:
            r1m117 = r1t116.manager
            if type(r1m117) is cls_11:
                if r1t116.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m117.name, osm, r1t116))
                if r1m117._hold_release or r1m117._released_this_cycle >= r1m117.width or (not r1m117._order) or (r1m117._order[0] is not osm):
                    osm.blocked_on = (r1m117, 'fq')
                    break
            elif not r1m117.release(osm, r1t116, osm._txn):
                osm.blocked_on = (r1m117, 'fq')
                break
        i2v118 = osm.operation.instr.src_regs
        if i2v118 is not None:
            if not isinstance(i2v118, (list, tuple)):
                if isinstance(i2v118, int):
                    _rc120 = producers_14[i2v118]
                    _rok119 = not _rc120 or _rc120[-1] is None or _rc120[-1].done
                else:
                    _rok119 = i2v118.done
                if not _rok119:
                    osm.blocked_on = (mgr_12, i2v118)
                    break
                mgr_12.n_inquiries += 1
            else:
                i2ok121 = True
                for i2s122 in i2v118:
                    if isinstance(i2s122, int):
                        _rc124 = producers_14[i2s122]
                        _rok123 = not _rc124 or _rc124[-1] is None or _rc124[-1].done
                    else:
                        _rok123 = i2s122.done
                    if not _rok123:
                        osm.blocked_on = (mgr_12, i2s122)
                        i2ok121 = False
                        break
                    mgr_12.n_inquiries += 1
                if not i2ok121:
                    break
        a3t126 = slot_tok_127 if slot_tok_127.holder is None else None
        if a3t126 is None:
            osm.blocked_on = (mgr_125, None)
            break
        a4t128 = None
        if mgr_24._n_free != 0:
            for _pt129 in pool_26:
                if _pt129.holder is None:
                    a4t128 = _pt129
                    break
        if a4t128 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m5l130 = []
        m5ok131 = True
        for m5i132 in osm.operation.instr.dst_regs or ():
            if not isinstance(m5i132, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m5i132))
            if m5i132 < 32:
                _rp134 = pool_33
            elif m5i132 == 32:
                _rp134 = pool_34
            elif m5i132 == 33:
                _rp134 = pool_35
            elif m5i132 == 34:
                _rp134 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m5i132,))
            m5t133 = None
            for _rt135 in _rp134:
                if _rt135.holder is None and _rt135 not in m5l130:
                    _rt135.value = m5i132
                    m5t133 = _rt135
                    break
            if m5t133 is None:
                osm.blocked_on = (mgr_12, m5i132)
                m5ok131 = False
                break
            m5l130.append(m5t133)
        if not m5ok131:
            break
        if r1t116 is not None:
            del buffer['fq']
            r1t116.holder = None
            if type(r1m117) is cls_11:
                r1m117.n_releases += 1
                r1m117._n_free += 1
                r1m117._order.remove(osm)
                r1m117._released_this_cycle += 1
                if r1m117._order and r1m117._released_this_cycle < r1m117.width:
                    r1m117._order[0]._asleep = False
            else:
                r1m117.on_release_commit(osm, r1t116, None)
        a3t126.holder = osm
        buffer['unit'] = a3t126
        mgr_125.n_allocates += 1
        a4t128.holder = osm
        buffer['cq'] = a4t128
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi136, _gt137 in enumerate(m5l130):
            _gt137.holder = osm
            buffer['ren' + str(_gi136)] = _gt137
            mgr_12.n_allocates += 1
            producers_14[_gt137.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_138
        osm.n_transitions += 1
        action_139(osm)
        return edge_138
    while True:
        if osm.operation.instr.unit != 'bpu':
            break
        r1t140 = buffer.get('fq')
        if r1t140 is not None:
            r1m141 = r1t140.manager
            if type(r1m141) is cls_11:
                if r1t140.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m141.name, osm, r1t140))
                if r1m141._hold_release or r1m141._released_this_cycle >= r1m141.width or (not r1m141._order) or (r1m141._order[0] is not osm):
                    osm.blocked_on = (r1m141, 'fq')
                    break
            elif not r1m141.release(osm, r1t140, osm._txn):
                osm.blocked_on = (r1m141, 'fq')
                break
        i2v142 = osm.operation.instr.src_regs
        if i2v142 is not None:
            if not isinstance(i2v142, (list, tuple)):
                if isinstance(i2v142, int):
                    _rc144 = producers_14[i2v142]
                    _rok143 = not _rc144 or _rc144[-1] is None or _rc144[-1].done
                else:
                    _rok143 = i2v142.done
                if not _rok143:
                    osm.blocked_on = (mgr_12, i2v142)
                    break
                mgr_12.n_inquiries += 1
            else:
                i2ok145 = True
                for i2s146 in i2v142:
                    if isinstance(i2s146, int):
                        _rc148 = producers_14[i2s146]
                        _rok147 = not _rc148 or _rc148[-1] is None or _rc148[-1].done
                    else:
                        _rok147 = i2s146.done
                    if not _rok147:
                        osm.blocked_on = (mgr_12, i2s146)
                        i2ok145 = False
                        break
                    mgr_12.n_inquiries += 1
                if not i2ok145:
                    break
        a3t150 = slot_tok_151 if slot_tok_151.holder is None else None
        if a3t150 is None:
            osm.blocked_on = (mgr_149, None)
            break
        a4t152 = None
        if mgr_24._n_free != 0:
            for _pt153 in pool_26:
                if _pt153.holder is None:
                    a4t152 = _pt153
                    break
        if a4t152 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m5l154 = []
        m5ok155 = True
        for m5i156 in osm.operation.instr.dst_regs or ():
            if not isinstance(m5i156, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m5i156))
            if m5i156 < 32:
                _rp158 = pool_33
            elif m5i156 == 32:
                _rp158 = pool_34
            elif m5i156 == 33:
                _rp158 = pool_35
            elif m5i156 == 34:
                _rp158 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m5i156,))
            m5t157 = None
            for _rt159 in _rp158:
                if _rt159.holder is None and _rt159 not in m5l154:
                    _rt159.value = m5i156
                    m5t157 = _rt159
                    break
            if m5t157 is None:
                osm.blocked_on = (mgr_12, m5i156)
                m5ok155 = False
                break
            m5l154.append(m5t157)
        if not m5ok155:
            break
        if r1t140 is not None:
            del buffer['fq']
            r1t140.holder = None
            if type(r1m141) is cls_11:
                r1m141.n_releases += 1
                r1m141._n_free += 1
                r1m141._order.remove(osm)
                r1m141._released_this_cycle += 1
                if r1m141._order and r1m141._released_this_cycle < r1m141.width:
                    r1m141._order[0]._asleep = False
            else:
                r1m141.on_release_commit(osm, r1t140, None)
        a3t150.holder = osm
        buffer['unit'] = a3t150
        mgr_149.n_allocates += 1
        a4t152.holder = osm
        buffer['cq'] = a4t152
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi160, _gt161 in enumerate(m5l154):
            _gt161.holder = osm
            buffer['ren' + str(_gi160)] = _gt161
            mgr_12.n_allocates += 1
            producers_14[_gt161.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_162
        osm.n_transitions += 1
        action_163(osm)
        return edge_162
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        r1t164 = buffer.get('fq')
        if r1t164 is not None:
            r1m165 = r1t164.manager
            if type(r1m165) is cls_11:
                if r1t164.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m165.name, osm, r1t164))
                if r1m165._hold_release or r1m165._released_this_cycle >= r1m165.width or (not r1m165._order) or (r1m165._order[0] is not osm):
                    osm.blocked_on = (r1m165, 'fq')
                    break
            elif not r1m165.release(osm, r1t164, osm._txn):
                osm.blocked_on = (r1m165, 'fq')
                break
        i2v166 = osm.operation.instr.src_regs
        if i2v166 is not None:
            if not isinstance(i2v166, (list, tuple)):
                if isinstance(i2v166, int):
                    _rc168 = producers_14[i2v166]
                    _rok167 = not _rc168 or _rc168[-1] is None or _rc168[-1].done
                else:
                    _rok167 = i2v166.done
                if not _rok167:
                    osm.blocked_on = (mgr_12, i2v166)
                    break
                mgr_12.n_inquiries += 1
            else:
                i2ok169 = True
                for i2s170 in i2v166:
                    if isinstance(i2s170, int):
                        _rc172 = producers_14[i2s170]
                        _rok171 = not _rc172 or _rc172[-1] is None or _rc172[-1].done
                    else:
                        _rok171 = i2s170.done
                    if not _rok171:
                        osm.blocked_on = (mgr_12, i2s170)
                        i2ok169 = False
                        break
                    mgr_12.n_inquiries += 1
                if not i2ok169:
                    break
        a3t173 = slot_tok_23 if slot_tok_23.holder is None else None
        if a3t173 is None:
            osm.blocked_on = (mgr_21, None)
            break
        a4t174 = None
        if mgr_24._n_free != 0:
            for _pt175 in pool_26:
                if _pt175.holder is None:
                    a4t174 = _pt175
                    break
        if a4t174 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m5l176 = []
        m5ok177 = True
        for m5i178 in osm.operation.instr.dst_regs or ():
            if not isinstance(m5i178, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m5i178))
            if m5i178 < 32:
                _rp180 = pool_33
            elif m5i178 == 32:
                _rp180 = pool_34
            elif m5i178 == 33:
                _rp180 = pool_35
            elif m5i178 == 34:
                _rp180 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m5i178,))
            m5t179 = None
            for _rt181 in _rp180:
                if _rt181.holder is None and _rt181 not in m5l176:
                    _rt181.value = m5i178
                    m5t179 = _rt181
                    break
            if m5t179 is None:
                osm.blocked_on = (mgr_12, m5i178)
                m5ok177 = False
                break
            m5l176.append(m5t179)
        if not m5ok177:
            break
        if r1t164 is not None:
            del buffer['fq']
            r1t164.holder = None
            if type(r1m165) is cls_11:
                r1m165.n_releases += 1
                r1m165._n_free += 1
                r1m165._order.remove(osm)
                r1m165._released_this_cycle += 1
                if r1m165._order and r1m165._released_this_cycle < r1m165.width:
                    r1m165._order[0]._asleep = False
            else:
                r1m165.on_release_commit(osm, r1t164, None)
        a3t173.holder = osm
        buffer['unit'] = a3t173
        mgr_21.n_allocates += 1
        a4t174.holder = osm
        buffer['cq'] = a4t174
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi182, _gt183 in enumerate(m5l176):
            _gt183.holder = osm
            buffer['ren' + str(_gi182)] = _gt183
            mgr_12.n_allocates += 1
            producers_14[_gt183.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_184
        osm.n_transitions += 1
        action_185(osm)
        return edge_184
    while True:
        if osm.operation.instr.unit != 'iu1':
            break
        r1t186 = buffer.get('fq')
        if r1t186 is not None:
            r1m187 = r1t186.manager
            if type(r1m187) is cls_11:
                if r1t186.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m187.name, osm, r1t186))
                if r1m187._hold_release or r1m187._released_this_cycle >= r1m187.width or (not r1m187._order) or (r1m187._order[0] is not osm):
                    osm.blocked_on = (r1m187, 'fq')
                    break
            elif not r1m187.release(osm, r1t186, osm._txn):
                osm.blocked_on = (r1m187, 'fq')
                break
        a2t189 = None
        if mgr_188._n_free != 0:
            for _pt191 in pool_190:
                if _pt191.holder is None:
                    a2t189 = _pt191
                    break
        if a2t189 is None:
            osm.blocked_on = (mgr_188, None)
            break
        a3t192 = None
        if mgr_24._n_free != 0:
            for _pt193 in pool_26:
                if _pt193.holder is None:
                    a3t192 = _pt193
                    break
        if a3t192 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m4l194 = []
        m4ok195 = True
        for m4i196 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i196, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m4i196))
            if m4i196 < 32:
                _rp198 = pool_33
            elif m4i196 == 32:
                _rp198 = pool_34
            elif m4i196 == 33:
                _rp198 = pool_35
            elif m4i196 == 34:
                _rp198 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m4i196,))
            m4t197 = None
            for _rt199 in _rp198:
                if _rt199.holder is None and _rt199 not in m4l194:
                    _rt199.value = m4i196
                    m4t197 = _rt199
                    break
            if m4t197 is None:
                osm.blocked_on = (mgr_12, m4i196)
                m4ok195 = False
                break
            m4l194.append(m4t197)
        if not m4ok195:
            break
        if r1t186 is not None:
            del buffer['fq']
            r1t186.holder = None
            if type(r1m187) is cls_11:
                r1m187.n_releases += 1
                r1m187._n_free += 1
                r1m187._order.remove(osm)
                r1m187._released_this_cycle += 1
                if r1m187._order and r1m187._released_this_cycle < r1m187.width:
                    r1m187._order[0]._asleep = False
            else:
                r1m187.on_release_commit(osm, r1t186, None)
        a2t189.holder = osm
        buffer['rs'] = a2t189
        mgr_188.n_allocates += 1
        mgr_188._n_free -= 1
        a3t192.holder = osm
        buffer['cq'] = a3t192
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi200, _gt201 in enumerate(m4l194):
            _gt201.holder = osm
            buffer['ren' + str(_gi200)] = _gt201
            mgr_12.n_allocates += 1
            producers_14[_gt201.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_202
        osm.n_transitions += 1
        action_204(osm)
        return edge_202
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        r1t205 = buffer.get('fq')
        if r1t205 is not None:
            r1m206 = r1t205.manager
            if type(r1m206) is cls_11:
                if r1t205.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m206.name, osm, r1t205))
                if r1m206._hold_release or r1m206._released_this_cycle >= r1m206.width or (not r1m206._order) or (r1m206._order[0] is not osm):
                    osm.blocked_on = (r1m206, 'fq')
                    break
            elif not r1m206.release(osm, r1t205, osm._txn):
                osm.blocked_on = (r1m206, 'fq')
                break
        a2t208 = None
        if mgr_207._n_free != 0:
            for _pt210 in pool_209:
                if _pt210.holder is None:
                    a2t208 = _pt210
                    break
        if a2t208 is None:
            osm.blocked_on = (mgr_207, None)
            break
        a3t211 = None
        if mgr_24._n_free != 0:
            for _pt212 in pool_26:
                if _pt212.holder is None:
                    a3t211 = _pt212
                    break
        if a3t211 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m4l213 = []
        m4ok214 = True
        for m4i215 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i215, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m4i215))
            if m4i215 < 32:
                _rp217 = pool_33
            elif m4i215 == 32:
                _rp217 = pool_34
            elif m4i215 == 33:
                _rp217 = pool_35
            elif m4i215 == 34:
                _rp217 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m4i215,))
            m4t216 = None
            for _rt218 in _rp217:
                if _rt218.holder is None and _rt218 not in m4l213:
                    _rt218.value = m4i215
                    m4t216 = _rt218
                    break
            if m4t216 is None:
                osm.blocked_on = (mgr_12, m4i215)
                m4ok214 = False
                break
            m4l213.append(m4t216)
        if not m4ok214:
            break
        if r1t205 is not None:
            del buffer['fq']
            r1t205.holder = None
            if type(r1m206) is cls_11:
                r1m206.n_releases += 1
                r1m206._n_free += 1
                r1m206._order.remove(osm)
                r1m206._released_this_cycle += 1
                if r1m206._order and r1m206._released_this_cycle < r1m206.width:
                    r1m206._order[0]._asleep = False
            else:
                r1m206.on_release_commit(osm, r1t205, None)
        a2t208.holder = osm
        buffer['rs'] = a2t208
        mgr_207.n_allocates += 1
        mgr_207._n_free -= 1
        a3t211.holder = osm
        buffer['cq'] = a3t211
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi219, _gt220 in enumerate(m4l213):
            _gt220.holder = osm
            buffer['ren' + str(_gi219)] = _gt220
            mgr_12.n_allocates += 1
            producers_14[_gt220.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_221
        osm.n_transitions += 1
        action_222(osm)
        return edge_221
    while True:
        if osm.operation.instr.unit != 'sru':
            break
        r1t223 = buffer.get('fq')
        if r1t223 is not None:
            r1m224 = r1t223.manager
            if type(r1m224) is cls_11:
                if r1t223.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m224.name, osm, r1t223))
                if r1m224._hold_release or r1m224._released_this_cycle >= r1m224.width or (not r1m224._order) or (r1m224._order[0] is not osm):
                    osm.blocked_on = (r1m224, 'fq')
                    break
            elif not r1m224.release(osm, r1t223, osm._txn):
                osm.blocked_on = (r1m224, 'fq')
                break
        a2t226 = None
        if mgr_225._n_free != 0:
            for _pt228 in pool_227:
                if _pt228.holder is None:
                    a2t226 = _pt228
                    break
        if a2t226 is None:
            osm.blocked_on = (mgr_225, None)
            break
        a3t229 = None
        if mgr_24._n_free != 0:
            for _pt230 in pool_26:
                if _pt230.holder is None:
                    a3t229 = _pt230
                    break
        if a3t229 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m4l231 = []
        m4ok232 = True
        for m4i233 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i233, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m4i233))
            if m4i233 < 32:
                _rp235 = pool_33
            elif m4i233 == 32:
                _rp235 = pool_34
            elif m4i233 == 33:
                _rp235 = pool_35
            elif m4i233 == 34:
                _rp235 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m4i233,))
            m4t234 = None
            for _rt236 in _rp235:
                if _rt236.holder is None and _rt236 not in m4l231:
                    _rt236.value = m4i233
                    m4t234 = _rt236
                    break
            if m4t234 is None:
                osm.blocked_on = (mgr_12, m4i233)
                m4ok232 = False
                break
            m4l231.append(m4t234)
        if not m4ok232:
            break
        if r1t223 is not None:
            del buffer['fq']
            r1t223.holder = None
            if type(r1m224) is cls_11:
                r1m224.n_releases += 1
                r1m224._n_free += 1
                r1m224._order.remove(osm)
                r1m224._released_this_cycle += 1
                if r1m224._order and r1m224._released_this_cycle < r1m224.width:
                    r1m224._order[0]._asleep = False
            else:
                r1m224.on_release_commit(osm, r1t223, None)
        a2t226.holder = osm
        buffer['rs'] = a2t226
        mgr_225.n_allocates += 1
        mgr_225._n_free -= 1
        a3t229.holder = osm
        buffer['cq'] = a3t229
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi237, _gt238 in enumerate(m4l231):
            _gt238.holder = osm
            buffer['ren' + str(_gi237)] = _gt238
            mgr_12.n_allocates += 1
            producers_14[_gt238.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_239
        osm.n_transitions += 1
        action_240(osm)
        return edge_239
    while True:
        if osm.operation.instr.unit != 'lsu':
            break
        r1t241 = buffer.get('fq')
        if r1t241 is not None:
            r1m242 = r1t241.manager
            if type(r1m242) is cls_11:
                if r1t241.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m242.name, osm, r1t241))
                if r1m242._hold_release or r1m242._released_this_cycle >= r1m242.width or (not r1m242._order) or (r1m242._order[0] is not osm):
                    osm.blocked_on = (r1m242, 'fq')
                    break
            elif not r1m242.release(osm, r1t241, osm._txn):
                osm.blocked_on = (r1m242, 'fq')
                break
        a2t244 = None
        if mgr_243._n_free != 0:
            for _pt246 in pool_245:
                if _pt246.holder is None:
                    a2t244 = _pt246
                    break
        if a2t244 is None:
            osm.blocked_on = (mgr_243, None)
            break
        a3t247 = None
        if mgr_24._n_free != 0:
            for _pt248 in pool_26:
                if _pt248.holder is None:
                    a3t247 = _pt248
                    break
        if a3t247 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m4l249 = []
        m4ok250 = True
        for m4i251 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i251, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m4i251))
            if m4i251 < 32:
                _rp253 = pool_33
            elif m4i251 == 32:
                _rp253 = pool_34
            elif m4i251 == 33:
                _rp253 = pool_35
            elif m4i251 == 34:
                _rp253 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m4i251,))
            m4t252 = None
            for _rt254 in _rp253:
                if _rt254.holder is None and _rt254 not in m4l249:
                    _rt254.value = m4i251
                    m4t252 = _rt254
                    break
            if m4t252 is None:
                osm.blocked_on = (mgr_12, m4i251)
                m4ok250 = False
                break
            m4l249.append(m4t252)
        if not m4ok250:
            break
        if r1t241 is not None:
            del buffer['fq']
            r1t241.holder = None
            if type(r1m242) is cls_11:
                r1m242.n_releases += 1
                r1m242._n_free += 1
                r1m242._order.remove(osm)
                r1m242._released_this_cycle += 1
                if r1m242._order and r1m242._released_this_cycle < r1m242.width:
                    r1m242._order[0]._asleep = False
            else:
                r1m242.on_release_commit(osm, r1t241, None)
        a2t244.holder = osm
        buffer['rs'] = a2t244
        mgr_243.n_allocates += 1
        mgr_243._n_free -= 1
        a3t247.holder = osm
        buffer['cq'] = a3t247
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi255, _gt256 in enumerate(m4l249):
            _gt256.holder = osm
            buffer['ren' + str(_gi255)] = _gt256
            mgr_12.n_allocates += 1
            producers_14[_gt256.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_257
        osm.n_transitions += 1
        action_258(osm)
        return edge_257
    while True:
        if osm.operation.instr.unit != 'fpu':
            break
        r1t259 = buffer.get('fq')
        if r1t259 is not None:
            r1m260 = r1t259.manager
            if type(r1m260) is cls_11:
                if r1t259.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m260.name, osm, r1t259))
                if r1m260._hold_release or r1m260._released_this_cycle >= r1m260.width or (not r1m260._order) or (r1m260._order[0] is not osm):
                    osm.blocked_on = (r1m260, 'fq')
                    break
            elif not r1m260.release(osm, r1t259, osm._txn):
                osm.blocked_on = (r1m260, 'fq')
                break
        a2t262 = None
        if mgr_261._n_free != 0:
            for _pt264 in pool_263:
                if _pt264.holder is None:
                    a2t262 = _pt264
                    break
        if a2t262 is None:
            osm.blocked_on = (mgr_261, None)
            break
        a3t265 = None
        if mgr_24._n_free != 0:
            for _pt266 in pool_26:
                if _pt266.holder is None:
                    a3t265 = _pt266
                    break
        if a3t265 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m4l267 = []
        m4ok268 = True
        for m4i269 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i269, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m4i269))
            if m4i269 < 32:
                _rp271 = pool_33
            elif m4i269 == 32:
                _rp271 = pool_34
            elif m4i269 == 33:
                _rp271 = pool_35
            elif m4i269 == 34:
                _rp271 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m4i269,))
            m4t270 = None
            for _rt272 in _rp271:
                if _rt272.holder is None and _rt272 not in m4l267:
                    _rt272.value = m4i269
                    m4t270 = _rt272
                    break
            if m4t270 is None:
                osm.blocked_on = (mgr_12, m4i269)
                m4ok268 = False
                break
            m4l267.append(m4t270)
        if not m4ok268:
            break
        if r1t259 is not None:
            del buffer['fq']
            r1t259.holder = None
            if type(r1m260) is cls_11:
                r1m260.n_releases += 1
                r1m260._n_free += 1
                r1m260._order.remove(osm)
                r1m260._released_this_cycle += 1
                if r1m260._order and r1m260._released_this_cycle < r1m260.width:
                    r1m260._order[0]._asleep = False
            else:
                r1m260.on_release_commit(osm, r1t259, None)
        a2t262.holder = osm
        buffer['rs'] = a2t262
        mgr_261.n_allocates += 1
        mgr_261._n_free -= 1
        a3t265.holder = osm
        buffer['cq'] = a3t265
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi273, _gt274 in enumerate(m4l267):
            _gt274.holder = osm
            buffer['ren' + str(_gi273)] = _gt274
            mgr_12.n_allocates += 1
            producers_14[_gt274.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_275
        osm.n_transitions += 1
        action_276(osm)
        return edge_275
    while True:
        if osm.operation.instr.unit != 'bpu':
            break
        r1t277 = buffer.get('fq')
        if r1t277 is not None:
            r1m278 = r1t277.manager
            if type(r1m278) is cls_11:
                if r1t277.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r1m278.name, osm, r1t277))
                if r1m278._hold_release or r1m278._released_this_cycle >= r1m278.width or (not r1m278._order) or (r1m278._order[0] is not osm):
                    osm.blocked_on = (r1m278, 'fq')
                    break
            elif not r1m278.release(osm, r1t277, osm._txn):
                osm.blocked_on = (r1m278, 'fq')
                break
        a2t280 = None
        if mgr_279._n_free != 0:
            for _pt282 in pool_281:
                if _pt282.holder is None:
                    a2t280 = _pt282
                    break
        if a2t280 is None:
            osm.blocked_on = (mgr_279, None)
            break
        a3t283 = None
        if mgr_24._n_free != 0:
            for _pt284 in pool_26:
                if _pt284.holder is None:
                    a3t283 = _pt284
                    break
        if a3t283 is None:
            osm.blocked_on = (mgr_24, None)
            break
        m4l285 = []
        m4ok286 = True
        for m4i287 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i287, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_12.name, m4i287))
            if m4i287 < 32:
                _rp289 = pool_33
            elif m4i287 == 32:
                _rp289 = pool_34
            elif m4i287 == 33:
                _rp289 = pool_35
            elif m4i287 == 34:
                _rp289 = pool_36
            else:
                raise TokenError('unknown architectural register %s' % (m4i287,))
            m4t288 = None
            for _rt290 in _rp289:
                if _rt290.holder is None and _rt290 not in m4l285:
                    _rt290.value = m4i287
                    m4t288 = _rt290
                    break
            if m4t288 is None:
                osm.blocked_on = (mgr_12, m4i287)
                m4ok286 = False
                break
            m4l285.append(m4t288)
        if not m4ok286:
            break
        if r1t277 is not None:
            del buffer['fq']
            r1t277.holder = None
            if type(r1m278) is cls_11:
                r1m278.n_releases += 1
                r1m278._n_free += 1
                r1m278._order.remove(osm)
                r1m278._released_this_cycle += 1
                if r1m278._order and r1m278._released_this_cycle < r1m278.width:
                    r1m278._order[0]._asleep = False
            else:
                r1m278.on_release_commit(osm, r1t277, None)
        a2t280.holder = osm
        buffer['rs'] = a2t280
        mgr_279.n_allocates += 1
        mgr_279._n_free -= 1
        a3t283.holder = osm
        buffer['cq'] = a3t283
        mgr_24.n_allocates += 1
        mgr_24._n_free -= 1
        order_38.append(osm)
        for _gi291, _gt292 in enumerate(m4l285):
            _gt292.holder = osm
            buffer['ren' + str(_gi291)] = _gt292
            mgr_12.n_allocates += 1
            producers_14[_gt292.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_293
        osm.n_transitions += 1
        action_294(osm)
        return edge_293
    return None
