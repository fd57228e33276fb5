def _fused_step(osm, clock, mgr_1=mgr_1, doomed_2=doomed_2, edge_6=edge_6, dst_7=dst_7, action_8=action_8, mgr_9=mgr_9, producers_11=producers_11, mgr_18=mgr_18, slot_tok_20=slot_tok_20, mgr_21=mgr_21, pool_23=pool_23, pool_30=pool_30, pool_31=pool_31, pool_32=pool_32, pool_33=pool_33, cls_37=cls_37, order_38=order_38, edge_41=edge_41, dst_42=dst_42, action_43=action_43, mgr_51=mgr_51, slot_tok_53=slot_tok_53, edge_66=edge_66, action_67=action_67, mgr_75=mgr_75, slot_tok_77=slot_tok_77, edge_90=edge_90, action_91=action_91, mgr_99=mgr_99, slot_tok_101=slot_tok_101, edge_114=edge_114, action_115=action_115, mgr_123=mgr_123, slot_tok_125=slot_tok_125, edge_138=edge_138, action_139=action_139, mgr_147=mgr_147, slot_tok_149=slot_tok_149, edge_162=edge_162, action_163=action_163, edge_184=edge_184, action_185=action_185, mgr_186=mgr_186, pool_188=pool_188, edge_202=edge_202, dst_203=dst_203, action_204=action_204, mgr_205=mgr_205, pool_207=pool_207, edge_221=edge_221, action_222=action_222, mgr_223=mgr_223, pool_225=pool_225, edge_239=edge_239, action_240=action_240, mgr_241=mgr_241, pool_243=pool_243, edge_257=edge_257, action_258=action_258, mgr_259=mgr_259, pool_261=pool_261, edge_275=edge_275, action_276=action_276, mgr_277=mgr_277, pool_279=pool_279, edge_293=edge_293, action_294=action_294):
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
        i1v10 = osm.operation.instr.src_regs
        if i1v10 is not None:
            if not isinstance(i1v10, (list, tuple)):
                if isinstance(i1v10, int):
                    _rc13 = producers_11[i1v10]
                    _rok12 = not _rc13 or _rc13[-1] is None or _rc13[-1].done
                else:
                    _rok12 = i1v10.done
                if not _rok12:
                    osm.blocked_on = (mgr_9, i1v10)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok14 = True
                for i1s15 in i1v10:
                    if isinstance(i1s15, int):
                        _rc17 = producers_11[i1s15]
                        _rok16 = not _rc17 or _rc17[-1] is None or _rc17[-1].done
                    else:
                        _rok16 = i1s15.done
                    if not _rok16:
                        osm.blocked_on = (mgr_9, i1s15)
                        i1ok14 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok14:
                    break
        a2t19 = slot_tok_20 if slot_tok_20.holder is None else None
        if a2t19 is None:
            osm.blocked_on = (mgr_18, None)
            break
        a3t22 = None
        if mgr_21._n_free != 0:
            for _pt24 in pool_23:
                if _pt24.holder is None:
                    a3t22 = _pt24
                    break
        if a3t22 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m4l25 = []
        m4ok26 = True
        for m4i27 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i27, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m4i27))
            if m4i27 < 32:
                _rp29 = pool_30
            elif m4i27 == 32:
                _rp29 = pool_31
            elif m4i27 == 33:
                _rp29 = pool_32
            elif m4i27 == 34:
                _rp29 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m4i27,))
            m4t28 = None
            for _rt34 in _rp29:
                if _rt34.holder is None and _rt34 not in m4l25:
                    _rt34.value = m4i27
                    m4t28 = _rt34
                    break
            if m4t28 is None:
                osm.blocked_on = (mgr_9, m4i27)
                m4ok26 = False
                break
            m4l25.append(m4t28)
        if not m4ok26:
            break
        r5t35 = buffer.get('fq')
        if r5t35 is not None:
            r5m36 = r5t35.manager
            if type(r5m36) is cls_37:
                if r5t35.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r5m36.name, osm, r5t35))
                if r5m36.hold_release or r5m36._released_this_cycle >= r5m36.width or (not r5m36._order) or (r5m36._order[0] is not osm):
                    osm.blocked_on = (r5m36, 'fq')
                    break
            elif not r5m36.release(osm, r5t35, osm._txn):
                osm.blocked_on = (r5m36, 'fq')
                break
        if r5t35 is not None:
            del buffer['fq']
            r5t35.holder = None
            if type(r5m36) is cls_37:
                r5m36.n_releases += 1
                r5m36._n_free += 1
                r5m36._order.remove(osm)
                r5m36._released_this_cycle += 1
            else:
                r5m36.on_release_commit(osm, r5t35, None)
        a2t19.holder = osm
        buffer['unit'] = a2t19
        mgr_18.n_allocates += 1
        a3t22.holder = osm
        buffer['cq'] = a3t22
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi39, _gt40 in enumerate(m4l25):
            _gt40.holder = osm
            buffer['ren' + str(_gi39)] = _gt40
            mgr_9.n_allocates += 1
            producers_11[_gt40.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_41
        osm.n_transitions += 1
        action_43(osm)
        return edge_41
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        i1v44 = osm.operation.instr.src_regs
        if i1v44 is not None:
            if not isinstance(i1v44, (list, tuple)):
                if isinstance(i1v44, int):
                    _rc46 = producers_11[i1v44]
                    _rok45 = not _rc46 or _rc46[-1] is None or _rc46[-1].done
                else:
                    _rok45 = i1v44.done
                if not _rok45:
                    osm.blocked_on = (mgr_9, i1v44)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok47 = True
                for i1s48 in i1v44:
                    if isinstance(i1s48, int):
                        _rc50 = producers_11[i1s48]
                        _rok49 = not _rc50 or _rc50[-1] is None or _rc50[-1].done
                    else:
                        _rok49 = i1s48.done
                    if not _rok49:
                        osm.blocked_on = (mgr_9, i1s48)
                        i1ok47 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok47:
                    break
        a2t52 = slot_tok_53 if slot_tok_53.holder is None else None
        if a2t52 is None:
            osm.blocked_on = (mgr_51, None)
            break
        a3t54 = None
        if mgr_21._n_free != 0:
            for _pt55 in pool_23:
                if _pt55.holder is None:
                    a3t54 = _pt55
                    break
        if a3t54 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m4l56 = []
        m4ok57 = True
        for m4i58 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i58, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m4i58))
            if m4i58 < 32:
                _rp60 = pool_30
            elif m4i58 == 32:
                _rp60 = pool_31
            elif m4i58 == 33:
                _rp60 = pool_32
            elif m4i58 == 34:
                _rp60 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m4i58,))
            m4t59 = None
            for _rt61 in _rp60:
                if _rt61.holder is None and _rt61 not in m4l56:
                    _rt61.value = m4i58
                    m4t59 = _rt61
                    break
            if m4t59 is None:
                osm.blocked_on = (mgr_9, m4i58)
                m4ok57 = False
                break
            m4l56.append(m4t59)
        if not m4ok57:
            break
        r5t62 = buffer.get('fq')
        if r5t62 is not None:
            r5m63 = r5t62.manager
            if type(r5m63) is cls_37:
                if r5t62.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r5m63.name, osm, r5t62))
                if r5m63.hold_release or r5m63._released_this_cycle >= r5m63.width or (not r5m63._order) or (r5m63._order[0] is not osm):
                    osm.blocked_on = (r5m63, 'fq')
                    break
            elif not r5m63.release(osm, r5t62, osm._txn):
                osm.blocked_on = (r5m63, 'fq')
                break
        if r5t62 is not None:
            del buffer['fq']
            r5t62.holder = None
            if type(r5m63) is cls_37:
                r5m63.n_releases += 1
                r5m63._n_free += 1
                r5m63._order.remove(osm)
                r5m63._released_this_cycle += 1
            else:
                r5m63.on_release_commit(osm, r5t62, None)
        a2t52.holder = osm
        buffer['unit'] = a2t52
        mgr_51.n_allocates += 1
        a3t54.holder = osm
        buffer['cq'] = a3t54
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi64, _gt65 in enumerate(m4l56):
            _gt65.holder = osm
            buffer['ren' + str(_gi64)] = _gt65
            mgr_9.n_allocates += 1
            producers_11[_gt65.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_66
        osm.n_transitions += 1
        action_67(osm)
        return edge_66
    while True:
        if osm.operation.instr.unit != 'sru':
            break
        i1v68 = osm.operation.instr.src_regs
        if i1v68 is not None:
            if not isinstance(i1v68, (list, tuple)):
                if isinstance(i1v68, int):
                    _rc70 = producers_11[i1v68]
                    _rok69 = not _rc70 or _rc70[-1] is None or _rc70[-1].done
                else:
                    _rok69 = i1v68.done
                if not _rok69:
                    osm.blocked_on = (mgr_9, i1v68)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok71 = True
                for i1s72 in i1v68:
                    if isinstance(i1s72, int):
                        _rc74 = producers_11[i1s72]
                        _rok73 = not _rc74 or _rc74[-1] is None or _rc74[-1].done
                    else:
                        _rok73 = i1s72.done
                    if not _rok73:
                        osm.blocked_on = (mgr_9, i1s72)
                        i1ok71 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok71:
                    break
        a2t76 = slot_tok_77 if slot_tok_77.holder is None else None
        if a2t76 is None:
            osm.blocked_on = (mgr_75, None)
            break
        a3t78 = None
        if mgr_21._n_free != 0:
            for _pt79 in pool_23:
                if _pt79.holder is None:
                    a3t78 = _pt79
                    break
        if a3t78 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m4l80 = []
        m4ok81 = True
        for m4i82 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i82, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m4i82))
            if m4i82 < 32:
                _rp84 = pool_30
            elif m4i82 == 32:
                _rp84 = pool_31
            elif m4i82 == 33:
                _rp84 = pool_32
            elif m4i82 == 34:
                _rp84 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m4i82,))
            m4t83 = None
            for _rt85 in _rp84:
                if _rt85.holder is None and _rt85 not in m4l80:
                    _rt85.value = m4i82
                    m4t83 = _rt85
                    break
            if m4t83 is None:
                osm.blocked_on = (mgr_9, m4i82)
                m4ok81 = False
                break
            m4l80.append(m4t83)
        if not m4ok81:
            break
        r5t86 = buffer.get('fq')
        if r5t86 is not None:
            r5m87 = r5t86.manager
            if type(r5m87) is cls_37:
                if r5t86.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r5m87.name, osm, r5t86))
                if r5m87.hold_release or r5m87._released_this_cycle >= r5m87.width or (not r5m87._order) or (r5m87._order[0] is not osm):
                    osm.blocked_on = (r5m87, 'fq')
                    break
            elif not r5m87.release(osm, r5t86, osm._txn):
                osm.blocked_on = (r5m87, 'fq')
                break
        if r5t86 is not None:
            del buffer['fq']
            r5t86.holder = None
            if type(r5m87) is cls_37:
                r5m87.n_releases += 1
                r5m87._n_free += 1
                r5m87._order.remove(osm)
                r5m87._released_this_cycle += 1
            else:
                r5m87.on_release_commit(osm, r5t86, None)
        a2t76.holder = osm
        buffer['unit'] = a2t76
        mgr_75.n_allocates += 1
        a3t78.holder = osm
        buffer['cq'] = a3t78
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi88, _gt89 in enumerate(m4l80):
            _gt89.holder = osm
            buffer['ren' + str(_gi88)] = _gt89
            mgr_9.n_allocates += 1
            producers_11[_gt89.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_90
        osm.n_transitions += 1
        action_91(osm)
        return edge_90
    while True:
        if osm.operation.instr.unit != 'lsu':
            break
        i1v92 = osm.operation.instr.src_regs
        if i1v92 is not None:
            if not isinstance(i1v92, (list, tuple)):
                if isinstance(i1v92, int):
                    _rc94 = producers_11[i1v92]
                    _rok93 = not _rc94 or _rc94[-1] is None or _rc94[-1].done
                else:
                    _rok93 = i1v92.done
                if not _rok93:
                    osm.blocked_on = (mgr_9, i1v92)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok95 = True
                for i1s96 in i1v92:
                    if isinstance(i1s96, int):
                        _rc98 = producers_11[i1s96]
                        _rok97 = not _rc98 or _rc98[-1] is None or _rc98[-1].done
                    else:
                        _rok97 = i1s96.done
                    if not _rok97:
                        osm.blocked_on = (mgr_9, i1s96)
                        i1ok95 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok95:
                    break
        a2t100 = slot_tok_101 if slot_tok_101.holder is None else None
        if a2t100 is None:
            osm.blocked_on = (mgr_99, None)
            break
        a3t102 = None
        if mgr_21._n_free != 0:
            for _pt103 in pool_23:
                if _pt103.holder is None:
                    a3t102 = _pt103
                    break
        if a3t102 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m4l104 = []
        m4ok105 = True
        for m4i106 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i106, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m4i106))
            if m4i106 < 32:
                _rp108 = pool_30
            elif m4i106 == 32:
                _rp108 = pool_31
            elif m4i106 == 33:
                _rp108 = pool_32
            elif m4i106 == 34:
                _rp108 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m4i106,))
            m4t107 = None
            for _rt109 in _rp108:
                if _rt109.holder is None and _rt109 not in m4l104:
                    _rt109.value = m4i106
                    m4t107 = _rt109
                    break
            if m4t107 is None:
                osm.blocked_on = (mgr_9, m4i106)
                m4ok105 = False
                break
            m4l104.append(m4t107)
        if not m4ok105:
            break
        r5t110 = buffer.get('fq')
        if r5t110 is not None:
            r5m111 = r5t110.manager
            if type(r5m111) is cls_37:
                if r5t110.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r5m111.name, osm, r5t110))
                if r5m111.hold_release or r5m111._released_this_cycle >= r5m111.width or (not r5m111._order) or (r5m111._order[0] is not osm):
                    osm.blocked_on = (r5m111, 'fq')
                    break
            elif not r5m111.release(osm, r5t110, osm._txn):
                osm.blocked_on = (r5m111, 'fq')
                break
        if r5t110 is not None:
            del buffer['fq']
            r5t110.holder = None
            if type(r5m111) is cls_37:
                r5m111.n_releases += 1
                r5m111._n_free += 1
                r5m111._order.remove(osm)
                r5m111._released_this_cycle += 1
            else:
                r5m111.on_release_commit(osm, r5t110, None)
        a2t100.holder = osm
        buffer['unit'] = a2t100
        mgr_99.n_allocates += 1
        a3t102.holder = osm
        buffer['cq'] = a3t102
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi112, _gt113 in enumerate(m4l104):
            _gt113.holder = osm
            buffer['ren' + str(_gi112)] = _gt113
            mgr_9.n_allocates += 1
            producers_11[_gt113.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_114
        osm.n_transitions += 1
        action_115(osm)
        return edge_114
    while True:
        if osm.operation.instr.unit != 'fpu':
            break
        i1v116 = osm.operation.instr.src_regs
        if i1v116 is not None:
            if not isinstance(i1v116, (list, tuple)):
                if isinstance(i1v116, int):
                    _rc118 = producers_11[i1v116]
                    _rok117 = not _rc118 or _rc118[-1] is None or _rc118[-1].done
                else:
                    _rok117 = i1v116.done
                if not _rok117:
                    osm.blocked_on = (mgr_9, i1v116)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok119 = True
                for i1s120 in i1v116:
                    if isinstance(i1s120, int):
                        _rc122 = producers_11[i1s120]
                        _rok121 = not _rc122 or _rc122[-1] is None or _rc122[-1].done
                    else:
                        _rok121 = i1s120.done
                    if not _rok121:
                        osm.blocked_on = (mgr_9, i1s120)
                        i1ok119 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok119:
                    break
        a2t124 = slot_tok_125 if slot_tok_125.holder is None else None
        if a2t124 is None:
            osm.blocked_on = (mgr_123, None)
            break
        a3t126 = None
        if mgr_21._n_free != 0:
            for _pt127 in pool_23:
                if _pt127.holder is None:
                    a3t126 = _pt127
                    break
        if a3t126 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m4l128 = []
        m4ok129 = True
        for m4i130 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i130, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m4i130))
            if m4i130 < 32:
                _rp132 = pool_30
            elif m4i130 == 32:
                _rp132 = pool_31
            elif m4i130 == 33:
                _rp132 = pool_32
            elif m4i130 == 34:
                _rp132 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m4i130,))
            m4t131 = None
            for _rt133 in _rp132:
                if _rt133.holder is None and _rt133 not in m4l128:
                    _rt133.value = m4i130
                    m4t131 = _rt133
                    break
            if m4t131 is None:
                osm.blocked_on = (mgr_9, m4i130)
                m4ok129 = False
                break
            m4l128.append(m4t131)
        if not m4ok129:
            break
        r5t134 = buffer.get('fq')
        if r5t134 is not None:
            r5m135 = r5t134.manager
            if type(r5m135) is cls_37:
                if r5t134.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r5m135.name, osm, r5t134))
                if r5m135.hold_release or r5m135._released_this_cycle >= r5m135.width or (not r5m135._order) or (r5m135._order[0] is not osm):
                    osm.blocked_on = (r5m135, 'fq')
                    break
            elif not r5m135.release(osm, r5t134, osm._txn):
                osm.blocked_on = (r5m135, 'fq')
                break
        if r5t134 is not None:
            del buffer['fq']
            r5t134.holder = None
            if type(r5m135) is cls_37:
                r5m135.n_releases += 1
                r5m135._n_free += 1
                r5m135._order.remove(osm)
                r5m135._released_this_cycle += 1
            else:
                r5m135.on_release_commit(osm, r5t134, None)
        a2t124.holder = osm
        buffer['unit'] = a2t124
        mgr_123.n_allocates += 1
        a3t126.holder = osm
        buffer['cq'] = a3t126
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi136, _gt137 in enumerate(m4l128):
            _gt137.holder = osm
            buffer['ren' + str(_gi136)] = _gt137
            mgr_9.n_allocates += 1
            producers_11[_gt137.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_138
        osm.n_transitions += 1
        action_139(osm)
        return edge_138
    while True:
        if osm.operation.instr.unit != 'bpu':
            break
        i1v140 = osm.operation.instr.src_regs
        if i1v140 is not None:
            if not isinstance(i1v140, (list, tuple)):
                if isinstance(i1v140, int):
                    _rc142 = producers_11[i1v140]
                    _rok141 = not _rc142 or _rc142[-1] is None or _rc142[-1].done
                else:
                    _rok141 = i1v140.done
                if not _rok141:
                    osm.blocked_on = (mgr_9, i1v140)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok143 = True
                for i1s144 in i1v140:
                    if isinstance(i1s144, int):
                        _rc146 = producers_11[i1s144]
                        _rok145 = not _rc146 or _rc146[-1] is None or _rc146[-1].done
                    else:
                        _rok145 = i1s144.done
                    if not _rok145:
                        osm.blocked_on = (mgr_9, i1s144)
                        i1ok143 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok143:
                    break
        a2t148 = slot_tok_149 if slot_tok_149.holder is None else None
        if a2t148 is None:
            osm.blocked_on = (mgr_147, None)
            break
        a3t150 = None
        if mgr_21._n_free != 0:
            for _pt151 in pool_23:
                if _pt151.holder is None:
                    a3t150 = _pt151
                    break
        if a3t150 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m4l152 = []
        m4ok153 = True
        for m4i154 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i154, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m4i154))
            if m4i154 < 32:
                _rp156 = pool_30
            elif m4i154 == 32:
                _rp156 = pool_31
            elif m4i154 == 33:
                _rp156 = pool_32
            elif m4i154 == 34:
                _rp156 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m4i154,))
            m4t155 = None
            for _rt157 in _rp156:
                if _rt157.holder is None and _rt157 not in m4l152:
                    _rt157.value = m4i154
                    m4t155 = _rt157
                    break
            if m4t155 is None:
                osm.blocked_on = (mgr_9, m4i154)
                m4ok153 = False
                break
            m4l152.append(m4t155)
        if not m4ok153:
            break
        r5t158 = buffer.get('fq')
        if r5t158 is not None:
            r5m159 = r5t158.manager
            if type(r5m159) is cls_37:
                if r5t158.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r5m159.name, osm, r5t158))
                if r5m159.hold_release or r5m159._released_this_cycle >= r5m159.width or (not r5m159._order) or (r5m159._order[0] is not osm):
                    osm.blocked_on = (r5m159, 'fq')
                    break
            elif not r5m159.release(osm, r5t158, osm._txn):
                osm.blocked_on = (r5m159, 'fq')
                break
        if r5t158 is not None:
            del buffer['fq']
            r5t158.holder = None
            if type(r5m159) is cls_37:
                r5m159.n_releases += 1
                r5m159._n_free += 1
                r5m159._order.remove(osm)
                r5m159._released_this_cycle += 1
            else:
                r5m159.on_release_commit(osm, r5t158, None)
        a2t148.holder = osm
        buffer['unit'] = a2t148
        mgr_147.n_allocates += 1
        a3t150.holder = osm
        buffer['cq'] = a3t150
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi160, _gt161 in enumerate(m4l152):
            _gt161.holder = osm
            buffer['ren' + str(_gi160)] = _gt161
            mgr_9.n_allocates += 1
            producers_11[_gt161.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_162
        osm.n_transitions += 1
        action_163(osm)
        return edge_162
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        i1v164 = osm.operation.instr.src_regs
        if i1v164 is not None:
            if not isinstance(i1v164, (list, tuple)):
                if isinstance(i1v164, int):
                    _rc166 = producers_11[i1v164]
                    _rok165 = not _rc166 or _rc166[-1] is None or _rc166[-1].done
                else:
                    _rok165 = i1v164.done
                if not _rok165:
                    osm.blocked_on = (mgr_9, i1v164)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok167 = True
                for i1s168 in i1v164:
                    if isinstance(i1s168, int):
                        _rc170 = producers_11[i1s168]
                        _rok169 = not _rc170 or _rc170[-1] is None or _rc170[-1].done
                    else:
                        _rok169 = i1s168.done
                    if not _rok169:
                        osm.blocked_on = (mgr_9, i1s168)
                        i1ok167 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok167:
                    break
        a2t171 = slot_tok_20 if slot_tok_20.holder is None else None
        if a2t171 is None:
            osm.blocked_on = (mgr_18, None)
            break
        a3t172 = None
        if mgr_21._n_free != 0:
            for _pt173 in pool_23:
                if _pt173.holder is None:
                    a3t172 = _pt173
                    break
        if a3t172 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m4l174 = []
        m4ok175 = True
        for m4i176 in osm.operation.instr.dst_regs or ():
            if not isinstance(m4i176, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m4i176))
            if m4i176 < 32:
                _rp178 = pool_30
            elif m4i176 == 32:
                _rp178 = pool_31
            elif m4i176 == 33:
                _rp178 = pool_32
            elif m4i176 == 34:
                _rp178 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m4i176,))
            m4t177 = None
            for _rt179 in _rp178:
                if _rt179.holder is None and _rt179 not in m4l174:
                    _rt179.value = m4i176
                    m4t177 = _rt179
                    break
            if m4t177 is None:
                osm.blocked_on = (mgr_9, m4i176)
                m4ok175 = False
                break
            m4l174.append(m4t177)
        if not m4ok175:
            break
        r5t180 = buffer.get('fq')
        if r5t180 is not None:
            r5m181 = r5t180.manager
            if type(r5m181) is cls_37:
                if r5t180.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r5m181.name, osm, r5t180))
                if r5m181.hold_release or r5m181._released_this_cycle >= r5m181.width or (not r5m181._order) or (r5m181._order[0] is not osm):
                    osm.blocked_on = (r5m181, 'fq')
                    break
            elif not r5m181.release(osm, r5t180, osm._txn):
                osm.blocked_on = (r5m181, 'fq')
                break
        if r5t180 is not None:
            del buffer['fq']
            r5t180.holder = None
            if type(r5m181) is cls_37:
                r5m181.n_releases += 1
                r5m181._n_free += 1
                r5m181._order.remove(osm)
                r5m181._released_this_cycle += 1
            else:
                r5m181.on_release_commit(osm, r5t180, None)
        a2t171.holder = osm
        buffer['unit'] = a2t171
        mgr_18.n_allocates += 1
        a3t172.holder = osm
        buffer['cq'] = a3t172
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi182, _gt183 in enumerate(m4l174):
            _gt183.holder = osm
            buffer['ren' + str(_gi182)] = _gt183
            mgr_9.n_allocates += 1
            producers_11[_gt183.value].append(osm.operation)
        osm.current = dst_42
        osm.last_edge = edge_184
        osm.n_transitions += 1
        action_185(osm)
        return edge_184
    while True:
        if osm.operation.instr.unit != 'iu1':
            break
        a1t187 = None
        if mgr_186._n_free != 0:
            for _pt189 in pool_188:
                if _pt189.holder is None:
                    a1t187 = _pt189
                    break
        if a1t187 is None:
            osm.blocked_on = (mgr_186, None)
            break
        a2t190 = None
        if mgr_21._n_free != 0:
            for _pt191 in pool_23:
                if _pt191.holder is None:
                    a2t190 = _pt191
                    break
        if a2t190 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m3l192 = []
        m3ok193 = True
        for m3i194 in osm.operation.instr.dst_regs or ():
            if not isinstance(m3i194, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m3i194))
            if m3i194 < 32:
                _rp196 = pool_30
            elif m3i194 == 32:
                _rp196 = pool_31
            elif m3i194 == 33:
                _rp196 = pool_32
            elif m3i194 == 34:
                _rp196 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m3i194,))
            m3t195 = None
            for _rt197 in _rp196:
                if _rt197.holder is None and _rt197 not in m3l192:
                    _rt197.value = m3i194
                    m3t195 = _rt197
                    break
            if m3t195 is None:
                osm.blocked_on = (mgr_9, m3i194)
                m3ok193 = False
                break
            m3l192.append(m3t195)
        if not m3ok193:
            break
        r4t198 = buffer.get('fq')
        if r4t198 is not None:
            r4m199 = r4t198.manager
            if type(r4m199) is cls_37:
                if r4t198.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r4m199.name, osm, r4t198))
                if r4m199.hold_release or r4m199._released_this_cycle >= r4m199.width or (not r4m199._order) or (r4m199._order[0] is not osm):
                    osm.blocked_on = (r4m199, 'fq')
                    break
            elif not r4m199.release(osm, r4t198, osm._txn):
                osm.blocked_on = (r4m199, 'fq')
                break
        if r4t198 is not None:
            del buffer['fq']
            r4t198.holder = None
            if type(r4m199) is cls_37:
                r4m199.n_releases += 1
                r4m199._n_free += 1
                r4m199._order.remove(osm)
                r4m199._released_this_cycle += 1
            else:
                r4m199.on_release_commit(osm, r4t198, None)
        a1t187.holder = osm
        buffer['rs'] = a1t187
        mgr_186.n_allocates += 1
        mgr_186._n_free -= 1
        a2t190.holder = osm
        buffer['cq'] = a2t190
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi200, _gt201 in enumerate(m3l192):
            _gt201.holder = osm
            buffer['ren' + str(_gi200)] = _gt201
            mgr_9.n_allocates += 1
            producers_11[_gt201.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_202
        osm.n_transitions += 1
        action_204(osm)
        return edge_202
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        a1t206 = None
        if mgr_205._n_free != 0:
            for _pt208 in pool_207:
                if _pt208.holder is None:
                    a1t206 = _pt208
                    break
        if a1t206 is None:
            osm.blocked_on = (mgr_205, None)
            break
        a2t209 = None
        if mgr_21._n_free != 0:
            for _pt210 in pool_23:
                if _pt210.holder is None:
                    a2t209 = _pt210
                    break
        if a2t209 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m3l211 = []
        m3ok212 = True
        for m3i213 in osm.operation.instr.dst_regs or ():
            if not isinstance(m3i213, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m3i213))
            if m3i213 < 32:
                _rp215 = pool_30
            elif m3i213 == 32:
                _rp215 = pool_31
            elif m3i213 == 33:
                _rp215 = pool_32
            elif m3i213 == 34:
                _rp215 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m3i213,))
            m3t214 = None
            for _rt216 in _rp215:
                if _rt216.holder is None and _rt216 not in m3l211:
                    _rt216.value = m3i213
                    m3t214 = _rt216
                    break
            if m3t214 is None:
                osm.blocked_on = (mgr_9, m3i213)
                m3ok212 = False
                break
            m3l211.append(m3t214)
        if not m3ok212:
            break
        r4t217 = buffer.get('fq')
        if r4t217 is not None:
            r4m218 = r4t217.manager
            if type(r4m218) is cls_37:
                if r4t217.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r4m218.name, osm, r4t217))
                if r4m218.hold_release or r4m218._released_this_cycle >= r4m218.width or (not r4m218._order) or (r4m218._order[0] is not osm):
                    osm.blocked_on = (r4m218, 'fq')
                    break
            elif not r4m218.release(osm, r4t217, osm._txn):
                osm.blocked_on = (r4m218, 'fq')
                break
        if r4t217 is not None:
            del buffer['fq']
            r4t217.holder = None
            if type(r4m218) is cls_37:
                r4m218.n_releases += 1
                r4m218._n_free += 1
                r4m218._order.remove(osm)
                r4m218._released_this_cycle += 1
            else:
                r4m218.on_release_commit(osm, r4t217, None)
        a1t206.holder = osm
        buffer['rs'] = a1t206
        mgr_205.n_allocates += 1
        mgr_205._n_free -= 1
        a2t209.holder = osm
        buffer['cq'] = a2t209
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi219, _gt220 in enumerate(m3l211):
            _gt220.holder = osm
            buffer['ren' + str(_gi219)] = _gt220
            mgr_9.n_allocates += 1
            producers_11[_gt220.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_221
        osm.n_transitions += 1
        action_222(osm)
        return edge_221
    while True:
        if osm.operation.instr.unit != 'sru':
            break
        a1t224 = None
        if mgr_223._n_free != 0:
            for _pt226 in pool_225:
                if _pt226.holder is None:
                    a1t224 = _pt226
                    break
        if a1t224 is None:
            osm.blocked_on = (mgr_223, None)
            break
        a2t227 = None
        if mgr_21._n_free != 0:
            for _pt228 in pool_23:
                if _pt228.holder is None:
                    a2t227 = _pt228
                    break
        if a2t227 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m3l229 = []
        m3ok230 = True
        for m3i231 in osm.operation.instr.dst_regs or ():
            if not isinstance(m3i231, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m3i231))
            if m3i231 < 32:
                _rp233 = pool_30
            elif m3i231 == 32:
                _rp233 = pool_31
            elif m3i231 == 33:
                _rp233 = pool_32
            elif m3i231 == 34:
                _rp233 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m3i231,))
            m3t232 = None
            for _rt234 in _rp233:
                if _rt234.holder is None and _rt234 not in m3l229:
                    _rt234.value = m3i231
                    m3t232 = _rt234
                    break
            if m3t232 is None:
                osm.blocked_on = (mgr_9, m3i231)
                m3ok230 = False
                break
            m3l229.append(m3t232)
        if not m3ok230:
            break
        r4t235 = buffer.get('fq')
        if r4t235 is not None:
            r4m236 = r4t235.manager
            if type(r4m236) is cls_37:
                if r4t235.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r4m236.name, osm, r4t235))
                if r4m236.hold_release or r4m236._released_this_cycle >= r4m236.width or (not r4m236._order) or (r4m236._order[0] is not osm):
                    osm.blocked_on = (r4m236, 'fq')
                    break
            elif not r4m236.release(osm, r4t235, osm._txn):
                osm.blocked_on = (r4m236, 'fq')
                break
        if r4t235 is not None:
            del buffer['fq']
            r4t235.holder = None
            if type(r4m236) is cls_37:
                r4m236.n_releases += 1
                r4m236._n_free += 1
                r4m236._order.remove(osm)
                r4m236._released_this_cycle += 1
            else:
                r4m236.on_release_commit(osm, r4t235, None)
        a1t224.holder = osm
        buffer['rs'] = a1t224
        mgr_223.n_allocates += 1
        mgr_223._n_free -= 1
        a2t227.holder = osm
        buffer['cq'] = a2t227
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi237, _gt238 in enumerate(m3l229):
            _gt238.holder = osm
            buffer['ren' + str(_gi237)] = _gt238
            mgr_9.n_allocates += 1
            producers_11[_gt238.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_239
        osm.n_transitions += 1
        action_240(osm)
        return edge_239
    while True:
        if osm.operation.instr.unit != 'lsu':
            break
        a1t242 = None
        if mgr_241._n_free != 0:
            for _pt244 in pool_243:
                if _pt244.holder is None:
                    a1t242 = _pt244
                    break
        if a1t242 is None:
            osm.blocked_on = (mgr_241, None)
            break
        a2t245 = None
        if mgr_21._n_free != 0:
            for _pt246 in pool_23:
                if _pt246.holder is None:
                    a2t245 = _pt246
                    break
        if a2t245 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m3l247 = []
        m3ok248 = True
        for m3i249 in osm.operation.instr.dst_regs or ():
            if not isinstance(m3i249, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m3i249))
            if m3i249 < 32:
                _rp251 = pool_30
            elif m3i249 == 32:
                _rp251 = pool_31
            elif m3i249 == 33:
                _rp251 = pool_32
            elif m3i249 == 34:
                _rp251 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m3i249,))
            m3t250 = None
            for _rt252 in _rp251:
                if _rt252.holder is None and _rt252 not in m3l247:
                    _rt252.value = m3i249
                    m3t250 = _rt252
                    break
            if m3t250 is None:
                osm.blocked_on = (mgr_9, m3i249)
                m3ok248 = False
                break
            m3l247.append(m3t250)
        if not m3ok248:
            break
        r4t253 = buffer.get('fq')
        if r4t253 is not None:
            r4m254 = r4t253.manager
            if type(r4m254) is cls_37:
                if r4t253.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r4m254.name, osm, r4t253))
                if r4m254.hold_release or r4m254._released_this_cycle >= r4m254.width or (not r4m254._order) or (r4m254._order[0] is not osm):
                    osm.blocked_on = (r4m254, 'fq')
                    break
            elif not r4m254.release(osm, r4t253, osm._txn):
                osm.blocked_on = (r4m254, 'fq')
                break
        if r4t253 is not None:
            del buffer['fq']
            r4t253.holder = None
            if type(r4m254) is cls_37:
                r4m254.n_releases += 1
                r4m254._n_free += 1
                r4m254._order.remove(osm)
                r4m254._released_this_cycle += 1
            else:
                r4m254.on_release_commit(osm, r4t253, None)
        a1t242.holder = osm
        buffer['rs'] = a1t242
        mgr_241.n_allocates += 1
        mgr_241._n_free -= 1
        a2t245.holder = osm
        buffer['cq'] = a2t245
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi255, _gt256 in enumerate(m3l247):
            _gt256.holder = osm
            buffer['ren' + str(_gi255)] = _gt256
            mgr_9.n_allocates += 1
            producers_11[_gt256.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_257
        osm.n_transitions += 1
        action_258(osm)
        return edge_257
    while True:
        if osm.operation.instr.unit != 'fpu':
            break
        a1t260 = None
        if mgr_259._n_free != 0:
            for _pt262 in pool_261:
                if _pt262.holder is None:
                    a1t260 = _pt262
                    break
        if a1t260 is None:
            osm.blocked_on = (mgr_259, None)
            break
        a2t263 = None
        if mgr_21._n_free != 0:
            for _pt264 in pool_23:
                if _pt264.holder is None:
                    a2t263 = _pt264
                    break
        if a2t263 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m3l265 = []
        m3ok266 = True
        for m3i267 in osm.operation.instr.dst_regs or ():
            if not isinstance(m3i267, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m3i267))
            if m3i267 < 32:
                _rp269 = pool_30
            elif m3i267 == 32:
                _rp269 = pool_31
            elif m3i267 == 33:
                _rp269 = pool_32
            elif m3i267 == 34:
                _rp269 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m3i267,))
            m3t268 = None
            for _rt270 in _rp269:
                if _rt270.holder is None and _rt270 not in m3l265:
                    _rt270.value = m3i267
                    m3t268 = _rt270
                    break
            if m3t268 is None:
                osm.blocked_on = (mgr_9, m3i267)
                m3ok266 = False
                break
            m3l265.append(m3t268)
        if not m3ok266:
            break
        r4t271 = buffer.get('fq')
        if r4t271 is not None:
            r4m272 = r4t271.manager
            if type(r4m272) is cls_37:
                if r4t271.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r4m272.name, osm, r4t271))
                if r4m272.hold_release or r4m272._released_this_cycle >= r4m272.width or (not r4m272._order) or (r4m272._order[0] is not osm):
                    osm.blocked_on = (r4m272, 'fq')
                    break
            elif not r4m272.release(osm, r4t271, osm._txn):
                osm.blocked_on = (r4m272, 'fq')
                break
        if r4t271 is not None:
            del buffer['fq']
            r4t271.holder = None
            if type(r4m272) is cls_37:
                r4m272.n_releases += 1
                r4m272._n_free += 1
                r4m272._order.remove(osm)
                r4m272._released_this_cycle += 1
            else:
                r4m272.on_release_commit(osm, r4t271, None)
        a1t260.holder = osm
        buffer['rs'] = a1t260
        mgr_259.n_allocates += 1
        mgr_259._n_free -= 1
        a2t263.holder = osm
        buffer['cq'] = a2t263
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi273, _gt274 in enumerate(m3l265):
            _gt274.holder = osm
            buffer['ren' + str(_gi273)] = _gt274
            mgr_9.n_allocates += 1
            producers_11[_gt274.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_275
        osm.n_transitions += 1
        action_276(osm)
        return edge_275
    while True:
        if osm.operation.instr.unit != 'bpu':
            break
        a1t278 = None
        if mgr_277._n_free != 0:
            for _pt280 in pool_279:
                if _pt280.holder is None:
                    a1t278 = _pt280
                    break
        if a1t278 is None:
            osm.blocked_on = (mgr_277, None)
            break
        a2t281 = None
        if mgr_21._n_free != 0:
            for _pt282 in pool_23:
                if _pt282.holder is None:
                    a2t281 = _pt282
                    break
        if a2t281 is None:
            osm.blocked_on = (mgr_21, None)
            break
        m3l283 = []
        m3ok284 = True
        for m3i285 in osm.operation.instr.dst_regs or ():
            if not isinstance(m3i285, int):
                raise TokenError('%s: bad rename identifier %r' % (mgr_9.name, m3i285))
            if m3i285 < 32:
                _rp287 = pool_30
            elif m3i285 == 32:
                _rp287 = pool_31
            elif m3i285 == 33:
                _rp287 = pool_32
            elif m3i285 == 34:
                _rp287 = pool_33
            else:
                raise TokenError('unknown architectural register %s' % (m3i285,))
            m3t286 = None
            for _rt288 in _rp287:
                if _rt288.holder is None and _rt288 not in m3l283:
                    _rt288.value = m3i285
                    m3t286 = _rt288
                    break
            if m3t286 is None:
                osm.blocked_on = (mgr_9, m3i285)
                m3ok284 = False
                break
            m3l283.append(m3t286)
        if not m3ok284:
            break
        r4t289 = buffer.get('fq')
        if r4t289 is not None:
            r4m290 = r4t289.manager
            if type(r4m290) is cls_37:
                if r4t289.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r4m290.name, osm, r4t289))
                if r4m290.hold_release or r4m290._released_this_cycle >= r4m290.width or (not r4m290._order) or (r4m290._order[0] is not osm):
                    osm.blocked_on = (r4m290, 'fq')
                    break
            elif not r4m290.release(osm, r4t289, osm._txn):
                osm.blocked_on = (r4m290, 'fq')
                break
        if r4t289 is not None:
            del buffer['fq']
            r4t289.holder = None
            if type(r4m290) is cls_37:
                r4m290.n_releases += 1
                r4m290._n_free += 1
                r4m290._order.remove(osm)
                r4m290._released_this_cycle += 1
            else:
                r4m290.on_release_commit(osm, r4t289, None)
        a1t278.holder = osm
        buffer['rs'] = a1t278
        mgr_277.n_allocates += 1
        mgr_277._n_free -= 1
        a2t281.holder = osm
        buffer['cq'] = a2t281
        mgr_21.n_allocates += 1
        mgr_21._n_free -= 1
        order_38.append(osm)
        for _gi291, _gt292 in enumerate(m3l283):
            _gt292.holder = osm
            buffer['ren' + str(_gi291)] = _gt292
            mgr_9.n_allocates += 1
            producers_11[_gt292.value].append(osm.operation)
        osm.current = dst_203
        osm.last_edge = edge_293
        osm.n_transitions += 1
        action_294(osm)
        return edge_293
    return None
