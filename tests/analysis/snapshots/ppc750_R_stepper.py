def _fused_step(osm, clock, mgr_1=mgr_1, doomed_2=doomed_2, edge_6=edge_6, dst_7=dst_7, action_8=action_8, i1inq_9=i1inq_9, mgr_10=mgr_10, a2alloc_14=a2alloc_14, mgr_15=mgr_15, edge_19=edge_19, dst_20=dst_20, action_21=action_21, a2alloc_25=a2alloc_25, mgr_26=mgr_26, edge_30=edge_30, action_31=action_31, a2alloc_35=a2alloc_35, mgr_36=mgr_36, edge_40=edge_40, action_41=action_41, a2alloc_45=a2alloc_45, mgr_46=mgr_46, edge_50=edge_50, action_51=action_51, a2alloc_55=a2alloc_55, mgr_56=mgr_56, edge_60=edge_60, action_61=action_61, a2alloc_65=a2alloc_65, mgr_66=mgr_66, edge_70=edge_70, action_71=action_71):
    osm.blocked_on = None
    buffer = osm.token_buffer
    txn = osm._txn
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
        if txn.dirty:
            txn.reset(osm)
        i1v11 = osm.operation.src_deps
        if i1v11 is not None:
            if not isinstance(i1v11, (list, tuple)):
                if not i1inq_9(osm, i1v11, txn):
                    osm.blocked_on = (mgr_10, i1v11)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v11))
                mgr_10.n_inquiries += 1
            else:
                i1ok12 = True
                for i1s13 in i1v11:
                    if not i1inq_9(osm, i1s13, txn):
                        osm.blocked_on = (mgr_10, i1s13)
                        i1ok12 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s13))
                    mgr_10.n_inquiries += 1
                if not i1ok12:
                    break
        a2t16 = a2alloc_14(osm, None, txn)
        if a2t16 is None:
            osm.blocked_on = (mgr_15, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t16))
        txn._granted_ids.add(id(a2t16))
        r3t17 = buffer.get('rs')
        if r3t17 is not None:
            r3m18 = r3t17.manager
            if not r3m18.release(osm, r3t17, txn):
                osm.blocked_on = (r3m18, 'rs')
                break
            txn.dirty = True
            txn.releases.append((r3t17, None, 'rs'))
        txn.commit()
        osm.current = dst_20
        osm.last_edge = edge_19
        osm.n_transitions += 1
        action_21(osm)
        return edge_19
    while True:
        if osm.operation.rs_unit != 'iu2':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v22 = osm.operation.src_deps
        if i1v22 is not None:
            if not isinstance(i1v22, (list, tuple)):
                if not i1inq_9(osm, i1v22, txn):
                    osm.blocked_on = (mgr_10, i1v22)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v22))
                mgr_10.n_inquiries += 1
            else:
                i1ok23 = True
                for i1s24 in i1v22:
                    if not i1inq_9(osm, i1s24, txn):
                        osm.blocked_on = (mgr_10, i1s24)
                        i1ok23 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s24))
                    mgr_10.n_inquiries += 1
                if not i1ok23:
                    break
        a2t27 = a2alloc_25(osm, None, txn)
        if a2t27 is None:
            osm.blocked_on = (mgr_26, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t27))
        txn._granted_ids.add(id(a2t27))
        r3t28 = buffer.get('rs')
        if r3t28 is not None:
            r3m29 = r3t28.manager
            if not r3m29.release(osm, r3t28, txn):
                osm.blocked_on = (r3m29, 'rs')
                break
            txn.dirty = True
            txn.releases.append((r3t28, None, 'rs'))
        txn.commit()
        osm.current = dst_20
        osm.last_edge = edge_30
        osm.n_transitions += 1
        action_31(osm)
        return edge_30
    while True:
        if osm.operation.rs_unit != 'sru':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v32 = osm.operation.src_deps
        if i1v32 is not None:
            if not isinstance(i1v32, (list, tuple)):
                if not i1inq_9(osm, i1v32, txn):
                    osm.blocked_on = (mgr_10, i1v32)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v32))
                mgr_10.n_inquiries += 1
            else:
                i1ok33 = True
                for i1s34 in i1v32:
                    if not i1inq_9(osm, i1s34, txn):
                        osm.blocked_on = (mgr_10, i1s34)
                        i1ok33 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s34))
                    mgr_10.n_inquiries += 1
                if not i1ok33:
                    break
        a2t37 = a2alloc_35(osm, None, txn)
        if a2t37 is None:
            osm.blocked_on = (mgr_36, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t37))
        txn._granted_ids.add(id(a2t37))
        r3t38 = buffer.get('rs')
        if r3t38 is not None:
            r3m39 = r3t38.manager
            if not r3m39.release(osm, r3t38, txn):
                osm.blocked_on = (r3m39, 'rs')
                break
            txn.dirty = True
            txn.releases.append((r3t38, None, 'rs'))
        txn.commit()
        osm.current = dst_20
        osm.last_edge = edge_40
        osm.n_transitions += 1
        action_41(osm)
        return edge_40
    while True:
        if osm.operation.rs_unit != 'lsu':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v42 = osm.operation.src_deps
        if i1v42 is not None:
            if not isinstance(i1v42, (list, tuple)):
                if not i1inq_9(osm, i1v42, txn):
                    osm.blocked_on = (mgr_10, i1v42)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v42))
                mgr_10.n_inquiries += 1
            else:
                i1ok43 = True
                for i1s44 in i1v42:
                    if not i1inq_9(osm, i1s44, txn):
                        osm.blocked_on = (mgr_10, i1s44)
                        i1ok43 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s44))
                    mgr_10.n_inquiries += 1
                if not i1ok43:
                    break
        a2t47 = a2alloc_45(osm, None, txn)
        if a2t47 is None:
            osm.blocked_on = (mgr_46, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t47))
        txn._granted_ids.add(id(a2t47))
        r3t48 = buffer.get('rs')
        if r3t48 is not None:
            r3m49 = r3t48.manager
            if not r3m49.release(osm, r3t48, txn):
                osm.blocked_on = (r3m49, 'rs')
                break
            txn.dirty = True
            txn.releases.append((r3t48, None, 'rs'))
        txn.commit()
        osm.current = dst_20
        osm.last_edge = edge_50
        osm.n_transitions += 1
        action_51(osm)
        return edge_50
    while True:
        if osm.operation.rs_unit != 'fpu':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v52 = osm.operation.src_deps
        if i1v52 is not None:
            if not isinstance(i1v52, (list, tuple)):
                if not i1inq_9(osm, i1v52, txn):
                    osm.blocked_on = (mgr_10, i1v52)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v52))
                mgr_10.n_inquiries += 1
            else:
                i1ok53 = True
                for i1s54 in i1v52:
                    if not i1inq_9(osm, i1s54, txn):
                        osm.blocked_on = (mgr_10, i1s54)
                        i1ok53 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s54))
                    mgr_10.n_inquiries += 1
                if not i1ok53:
                    break
        a2t57 = a2alloc_55(osm, None, txn)
        if a2t57 is None:
            osm.blocked_on = (mgr_56, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t57))
        txn._granted_ids.add(id(a2t57))
        r3t58 = buffer.get('rs')
        if r3t58 is not None:
            r3m59 = r3t58.manager
            if not r3m59.release(osm, r3t58, txn):
                osm.blocked_on = (r3m59, 'rs')
                break
            txn.dirty = True
            txn.releases.append((r3t58, None, 'rs'))
        txn.commit()
        osm.current = dst_20
        osm.last_edge = edge_60
        osm.n_transitions += 1
        action_61(osm)
        return edge_60
    while True:
        if osm.operation.rs_unit != 'bpu':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v62 = osm.operation.src_deps
        if i1v62 is not None:
            if not isinstance(i1v62, (list, tuple)):
                if not i1inq_9(osm, i1v62, txn):
                    osm.blocked_on = (mgr_10, i1v62)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v62))
                mgr_10.n_inquiries += 1
            else:
                i1ok63 = True
                for i1s64 in i1v62:
                    if not i1inq_9(osm, i1s64, txn):
                        osm.blocked_on = (mgr_10, i1s64)
                        i1ok63 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s64))
                    mgr_10.n_inquiries += 1
                if not i1ok63:
                    break
        a2t67 = a2alloc_65(osm, None, txn)
        if a2t67 is None:
            osm.blocked_on = (mgr_66, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t67))
        txn._granted_ids.add(id(a2t67))
        r3t68 = buffer.get('rs')
        if r3t68 is not None:
            r3m69 = r3t68.manager
            if not r3m69.release(osm, r3t68, txn):
                osm.blocked_on = (r3m69, 'rs')
                break
            txn.dirty = True
            txn.releases.append((r3t68, None, 'rs'))
        txn.commit()
        osm.current = dst_20
        osm.last_edge = edge_70
        osm.n_transitions += 1
        action_71(osm)
        return edge_70
    return None
