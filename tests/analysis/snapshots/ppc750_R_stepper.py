def _fused_step(osm, clock, mgr_1=mgr_1, doomed_2=doomed_2, edge_6=edge_6, dst_7=dst_7, action_8=action_8, mgr_9=mgr_9, producers_11=producers_11, mgr_18=mgr_18, slot_tok_20=slot_tok_20, cls_23=cls_23, edge_24=edge_24, dst_25=dst_25, action_26=action_26, mgr_34=mgr_34, slot_tok_36=slot_tok_36, edge_39=edge_39, action_40=action_40, mgr_48=mgr_48, slot_tok_50=slot_tok_50, edge_53=edge_53, action_54=action_54, mgr_62=mgr_62, slot_tok_64=slot_tok_64, edge_67=edge_67, action_68=action_68, mgr_76=mgr_76, slot_tok_78=slot_tok_78, edge_81=edge_81, action_82=action_82, mgr_90=mgr_90, slot_tok_92=slot_tok_92, edge_95=edge_95, action_96=action_96):
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
        if osm.operation.rs_unit != 'iu1':
            break
        i1v10 = osm.operation.src_deps
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
        r3t21 = buffer.get('rs')
        if r3t21 is not None:
            r3m22 = r3t21.manager
            if type(r3m22) is cls_23:
                if r3t21.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r3m22.name, osm, r3t21))
                if r3m22.hold_release:
                    osm.blocked_on = (r3m22, 'rs')
                    break
            elif not r3m22.release(osm, r3t21, osm._txn):
                osm.blocked_on = (r3m22, 'rs')
                break
        if r3t21 is not None:
            del buffer['rs']
            r3t21.holder = None
            if type(r3m22) is cls_23:
                r3m22.n_releases += 1
                r3m22._n_free += 1
            else:
                r3m22.on_release_commit(osm, r3t21, None)
        a2t19.holder = osm
        buffer['unit'] = a2t19
        mgr_18.n_allocates += 1
        osm.current = dst_25
        osm.last_edge = edge_24
        osm.n_transitions += 1
        action_26(osm)
        return edge_24
    while True:
        if osm.operation.rs_unit != 'iu2':
            break
        i1v27 = osm.operation.src_deps
        if i1v27 is not None:
            if not isinstance(i1v27, (list, tuple)):
                if isinstance(i1v27, int):
                    _rc29 = producers_11[i1v27]
                    _rok28 = not _rc29 or _rc29[-1] is None or _rc29[-1].done
                else:
                    _rok28 = i1v27.done
                if not _rok28:
                    osm.blocked_on = (mgr_9, i1v27)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok30 = True
                for i1s31 in i1v27:
                    if isinstance(i1s31, int):
                        _rc33 = producers_11[i1s31]
                        _rok32 = not _rc33 or _rc33[-1] is None or _rc33[-1].done
                    else:
                        _rok32 = i1s31.done
                    if not _rok32:
                        osm.blocked_on = (mgr_9, i1s31)
                        i1ok30 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok30:
                    break
        a2t35 = slot_tok_36 if slot_tok_36.holder is None else None
        if a2t35 is None:
            osm.blocked_on = (mgr_34, None)
            break
        r3t37 = buffer.get('rs')
        if r3t37 is not None:
            r3m38 = r3t37.manager
            if type(r3m38) is cls_23:
                if r3t37.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r3m38.name, osm, r3t37))
                if r3m38.hold_release:
                    osm.blocked_on = (r3m38, 'rs')
                    break
            elif not r3m38.release(osm, r3t37, osm._txn):
                osm.blocked_on = (r3m38, 'rs')
                break
        if r3t37 is not None:
            del buffer['rs']
            r3t37.holder = None
            if type(r3m38) is cls_23:
                r3m38.n_releases += 1
                r3m38._n_free += 1
            else:
                r3m38.on_release_commit(osm, r3t37, None)
        a2t35.holder = osm
        buffer['unit'] = a2t35
        mgr_34.n_allocates += 1
        osm.current = dst_25
        osm.last_edge = edge_39
        osm.n_transitions += 1
        action_40(osm)
        return edge_39
    while True:
        if osm.operation.rs_unit != 'sru':
            break
        i1v41 = osm.operation.src_deps
        if i1v41 is not None:
            if not isinstance(i1v41, (list, tuple)):
                if isinstance(i1v41, int):
                    _rc43 = producers_11[i1v41]
                    _rok42 = not _rc43 or _rc43[-1] is None or _rc43[-1].done
                else:
                    _rok42 = i1v41.done
                if not _rok42:
                    osm.blocked_on = (mgr_9, i1v41)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok44 = True
                for i1s45 in i1v41:
                    if isinstance(i1s45, int):
                        _rc47 = producers_11[i1s45]
                        _rok46 = not _rc47 or _rc47[-1] is None or _rc47[-1].done
                    else:
                        _rok46 = i1s45.done
                    if not _rok46:
                        osm.blocked_on = (mgr_9, i1s45)
                        i1ok44 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok44:
                    break
        a2t49 = slot_tok_50 if slot_tok_50.holder is None else None
        if a2t49 is None:
            osm.blocked_on = (mgr_48, None)
            break
        r3t51 = buffer.get('rs')
        if r3t51 is not None:
            r3m52 = r3t51.manager
            if type(r3m52) is cls_23:
                if r3t51.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r3m52.name, osm, r3t51))
                if r3m52.hold_release:
                    osm.blocked_on = (r3m52, 'rs')
                    break
            elif not r3m52.release(osm, r3t51, osm._txn):
                osm.blocked_on = (r3m52, 'rs')
                break
        if r3t51 is not None:
            del buffer['rs']
            r3t51.holder = None
            if type(r3m52) is cls_23:
                r3m52.n_releases += 1
                r3m52._n_free += 1
            else:
                r3m52.on_release_commit(osm, r3t51, None)
        a2t49.holder = osm
        buffer['unit'] = a2t49
        mgr_48.n_allocates += 1
        osm.current = dst_25
        osm.last_edge = edge_53
        osm.n_transitions += 1
        action_54(osm)
        return edge_53
    while True:
        if osm.operation.rs_unit != 'lsu':
            break
        i1v55 = osm.operation.src_deps
        if i1v55 is not None:
            if not isinstance(i1v55, (list, tuple)):
                if isinstance(i1v55, int):
                    _rc57 = producers_11[i1v55]
                    _rok56 = not _rc57 or _rc57[-1] is None or _rc57[-1].done
                else:
                    _rok56 = i1v55.done
                if not _rok56:
                    osm.blocked_on = (mgr_9, i1v55)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok58 = True
                for i1s59 in i1v55:
                    if isinstance(i1s59, int):
                        _rc61 = producers_11[i1s59]
                        _rok60 = not _rc61 or _rc61[-1] is None or _rc61[-1].done
                    else:
                        _rok60 = i1s59.done
                    if not _rok60:
                        osm.blocked_on = (mgr_9, i1s59)
                        i1ok58 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok58:
                    break
        a2t63 = slot_tok_64 if slot_tok_64.holder is None else None
        if a2t63 is None:
            osm.blocked_on = (mgr_62, None)
            break
        r3t65 = buffer.get('rs')
        if r3t65 is not None:
            r3m66 = r3t65.manager
            if type(r3m66) is cls_23:
                if r3t65.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r3m66.name, osm, r3t65))
                if r3m66.hold_release:
                    osm.blocked_on = (r3m66, 'rs')
                    break
            elif not r3m66.release(osm, r3t65, osm._txn):
                osm.blocked_on = (r3m66, 'rs')
                break
        if r3t65 is not None:
            del buffer['rs']
            r3t65.holder = None
            if type(r3m66) is cls_23:
                r3m66.n_releases += 1
                r3m66._n_free += 1
            else:
                r3m66.on_release_commit(osm, r3t65, None)
        a2t63.holder = osm
        buffer['unit'] = a2t63
        mgr_62.n_allocates += 1
        osm.current = dst_25
        osm.last_edge = edge_67
        osm.n_transitions += 1
        action_68(osm)
        return edge_67
    while True:
        if osm.operation.rs_unit != 'fpu':
            break
        i1v69 = osm.operation.src_deps
        if i1v69 is not None:
            if not isinstance(i1v69, (list, tuple)):
                if isinstance(i1v69, int):
                    _rc71 = producers_11[i1v69]
                    _rok70 = not _rc71 or _rc71[-1] is None or _rc71[-1].done
                else:
                    _rok70 = i1v69.done
                if not _rok70:
                    osm.blocked_on = (mgr_9, i1v69)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok72 = True
                for i1s73 in i1v69:
                    if isinstance(i1s73, int):
                        _rc75 = producers_11[i1s73]
                        _rok74 = not _rc75 or _rc75[-1] is None or _rc75[-1].done
                    else:
                        _rok74 = i1s73.done
                    if not _rok74:
                        osm.blocked_on = (mgr_9, i1s73)
                        i1ok72 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok72:
                    break
        a2t77 = slot_tok_78 if slot_tok_78.holder is None else None
        if a2t77 is None:
            osm.blocked_on = (mgr_76, None)
            break
        r3t79 = buffer.get('rs')
        if r3t79 is not None:
            r3m80 = r3t79.manager
            if type(r3m80) is cls_23:
                if r3t79.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r3m80.name, osm, r3t79))
                if r3m80.hold_release:
                    osm.blocked_on = (r3m80, 'rs')
                    break
            elif not r3m80.release(osm, r3t79, osm._txn):
                osm.blocked_on = (r3m80, 'rs')
                break
        if r3t79 is not None:
            del buffer['rs']
            r3t79.holder = None
            if type(r3m80) is cls_23:
                r3m80.n_releases += 1
                r3m80._n_free += 1
            else:
                r3m80.on_release_commit(osm, r3t79, None)
        a2t77.holder = osm
        buffer['unit'] = a2t77
        mgr_76.n_allocates += 1
        osm.current = dst_25
        osm.last_edge = edge_81
        osm.n_transitions += 1
        action_82(osm)
        return edge_81
    while True:
        if osm.operation.rs_unit != 'bpu':
            break
        i1v83 = osm.operation.src_deps
        if i1v83 is not None:
            if not isinstance(i1v83, (list, tuple)):
                if isinstance(i1v83, int):
                    _rc85 = producers_11[i1v83]
                    _rok84 = not _rc85 or _rc85[-1] is None or _rc85[-1].done
                else:
                    _rok84 = i1v83.done
                if not _rok84:
                    osm.blocked_on = (mgr_9, i1v83)
                    break
                mgr_9.n_inquiries += 1
            else:
                i1ok86 = True
                for i1s87 in i1v83:
                    if isinstance(i1s87, int):
                        _rc89 = producers_11[i1s87]
                        _rok88 = not _rc89 or _rc89[-1] is None or _rc89[-1].done
                    else:
                        _rok88 = i1s87.done
                    if not _rok88:
                        osm.blocked_on = (mgr_9, i1s87)
                        i1ok86 = False
                        break
                    mgr_9.n_inquiries += 1
                if not i1ok86:
                    break
        a2t91 = slot_tok_92 if slot_tok_92.holder is None else None
        if a2t91 is None:
            osm.blocked_on = (mgr_90, None)
            break
        r3t93 = buffer.get('rs')
        if r3t93 is not None:
            r3m94 = r3t93.manager
            if type(r3m94) is cls_23:
                if r3t93.holder is not osm:
                    raise TokenError('%s: %r does not hold %r' % (r3m94.name, osm, r3t93))
                if r3m94.hold_release:
                    osm.blocked_on = (r3m94, 'rs')
                    break
            elif not r3m94.release(osm, r3t93, osm._txn):
                osm.blocked_on = (r3m94, 'rs')
                break
        if r3t93 is not None:
            del buffer['rs']
            r3t93.holder = None
            if type(r3m94) is cls_23:
                r3m94.n_releases += 1
                r3m94._n_free += 1
            else:
                r3m94.on_release_commit(osm, r3t93, None)
        a2t91.holder = osm
        buffer['unit'] = a2t91
        mgr_90.n_allocates += 1
        osm.current = dst_25
        osm.last_edge = edge_95
        osm.n_transitions += 1
        action_96(osm)
        return edge_95
    return None
