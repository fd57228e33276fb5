def _fused_step(osm, clock, mgr_1=mgr_1, doomed_2=doomed_2, edge_6=edge_6, dst_7=dst_7, action_8=action_8, i1inq_9=i1inq_9, mgr_10=mgr_10, a2alloc_14=a2alloc_14, mgr_15=mgr_15, a3alloc_17=a3alloc_17, mgr_18=mgr_18, m4alloc_20=m4alloc_20, edge_27=edge_27, dst_28=dst_28, action_29=action_29, a2alloc_33=a2alloc_33, mgr_34=mgr_34, edge_43=edge_43, action_44=action_44, a2alloc_48=a2alloc_48, mgr_49=mgr_49, edge_58=edge_58, action_59=action_59, a2alloc_63=a2alloc_63, mgr_64=mgr_64, edge_73=edge_73, action_74=action_74, a2alloc_78=a2alloc_78, mgr_79=mgr_79, edge_88=edge_88, action_89=action_89, a2alloc_93=a2alloc_93, mgr_94=mgr_94, edge_103=edge_103, action_104=action_104, edge_116=edge_116, action_117=action_117, a1alloc_118=a1alloc_118, mgr_119=mgr_119, edge_128=edge_128, dst_129=dst_129, action_130=action_130, a1alloc_131=a1alloc_131, mgr_132=mgr_132, edge_141=edge_141, action_142=action_142, a1alloc_143=a1alloc_143, mgr_144=mgr_144, edge_153=edge_153, action_154=action_154, a1alloc_155=a1alloc_155, mgr_156=mgr_156, edge_165=edge_165, action_166=action_166, a1alloc_167=a1alloc_167, mgr_168=mgr_168, edge_177=edge_177, action_178=action_178, a1alloc_179=a1alloc_179, mgr_180=mgr_180, edge_189=edge_189, action_190=action_190):
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
        if osm.operation.instr.unit != 'iu1':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v11 = osm.operation.instr.src_regs
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
        a3t19 = a3alloc_17(osm, None, txn)
        if a3t19 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a3t19))
        txn._granted_ids.add(id(a3t19))
        m4ok21 = True
        for m4x22, m4i23 in enumerate(osm.operation.instr.dst_regs or ()):
            m4t24 = m4alloc_20(osm, m4i23, txn)
            if m4t24 is None:
                osm.blocked_on = (mgr_10, m4i23)
                m4ok21 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m4x22), m4t24))
            txn._granted_ids.add(id(m4t24))
        if not m4ok21:
            break
        r5t25 = buffer.get('fq')
        if r5t25 is not None:
            r5m26 = r5t25.manager
            if not r5m26.release(osm, r5t25, txn):
                osm.blocked_on = (r5m26, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r5t25, None, 'fq'))
        txn.commit()
        osm.current = dst_28
        osm.last_edge = edge_27
        osm.n_transitions += 1
        action_29(osm)
        return edge_27
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v30 = osm.operation.instr.src_regs
        if i1v30 is not None:
            if not isinstance(i1v30, (list, tuple)):
                if not i1inq_9(osm, i1v30, txn):
                    osm.blocked_on = (mgr_10, i1v30)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v30))
                mgr_10.n_inquiries += 1
            else:
                i1ok31 = True
                for i1s32 in i1v30:
                    if not i1inq_9(osm, i1s32, txn):
                        osm.blocked_on = (mgr_10, i1s32)
                        i1ok31 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s32))
                    mgr_10.n_inquiries += 1
                if not i1ok31:
                    break
        a2t35 = a2alloc_33(osm, None, txn)
        if a2t35 is None:
            osm.blocked_on = (mgr_34, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t35))
        txn._granted_ids.add(id(a2t35))
        a3t36 = a3alloc_17(osm, None, txn)
        if a3t36 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a3t36))
        txn._granted_ids.add(id(a3t36))
        m4ok37 = True
        for m4x38, m4i39 in enumerate(osm.operation.instr.dst_regs or ()):
            m4t40 = m4alloc_20(osm, m4i39, txn)
            if m4t40 is None:
                osm.blocked_on = (mgr_10, m4i39)
                m4ok37 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m4x38), m4t40))
            txn._granted_ids.add(id(m4t40))
        if not m4ok37:
            break
        r5t41 = buffer.get('fq')
        if r5t41 is not None:
            r5m42 = r5t41.manager
            if not r5m42.release(osm, r5t41, txn):
                osm.blocked_on = (r5m42, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r5t41, None, 'fq'))
        txn.commit()
        osm.current = dst_28
        osm.last_edge = edge_43
        osm.n_transitions += 1
        action_44(osm)
        return edge_43
    while True:
        if osm.operation.instr.unit != 'sru':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v45 = osm.operation.instr.src_regs
        if i1v45 is not None:
            if not isinstance(i1v45, (list, tuple)):
                if not i1inq_9(osm, i1v45, txn):
                    osm.blocked_on = (mgr_10, i1v45)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v45))
                mgr_10.n_inquiries += 1
            else:
                i1ok46 = True
                for i1s47 in i1v45:
                    if not i1inq_9(osm, i1s47, txn):
                        osm.blocked_on = (mgr_10, i1s47)
                        i1ok46 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s47))
                    mgr_10.n_inquiries += 1
                if not i1ok46:
                    break
        a2t50 = a2alloc_48(osm, None, txn)
        if a2t50 is None:
            osm.blocked_on = (mgr_49, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t50))
        txn._granted_ids.add(id(a2t50))
        a3t51 = a3alloc_17(osm, None, txn)
        if a3t51 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a3t51))
        txn._granted_ids.add(id(a3t51))
        m4ok52 = True
        for m4x53, m4i54 in enumerate(osm.operation.instr.dst_regs or ()):
            m4t55 = m4alloc_20(osm, m4i54, txn)
            if m4t55 is None:
                osm.blocked_on = (mgr_10, m4i54)
                m4ok52 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m4x53), m4t55))
            txn._granted_ids.add(id(m4t55))
        if not m4ok52:
            break
        r5t56 = buffer.get('fq')
        if r5t56 is not None:
            r5m57 = r5t56.manager
            if not r5m57.release(osm, r5t56, txn):
                osm.blocked_on = (r5m57, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r5t56, None, 'fq'))
        txn.commit()
        osm.current = dst_28
        osm.last_edge = edge_58
        osm.n_transitions += 1
        action_59(osm)
        return edge_58
    while True:
        if osm.operation.instr.unit != 'lsu':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v60 = osm.operation.instr.src_regs
        if i1v60 is not None:
            if not isinstance(i1v60, (list, tuple)):
                if not i1inq_9(osm, i1v60, txn):
                    osm.blocked_on = (mgr_10, i1v60)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v60))
                mgr_10.n_inquiries += 1
            else:
                i1ok61 = True
                for i1s62 in i1v60:
                    if not i1inq_9(osm, i1s62, txn):
                        osm.blocked_on = (mgr_10, i1s62)
                        i1ok61 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s62))
                    mgr_10.n_inquiries += 1
                if not i1ok61:
                    break
        a2t65 = a2alloc_63(osm, None, txn)
        if a2t65 is None:
            osm.blocked_on = (mgr_64, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t65))
        txn._granted_ids.add(id(a2t65))
        a3t66 = a3alloc_17(osm, None, txn)
        if a3t66 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a3t66))
        txn._granted_ids.add(id(a3t66))
        m4ok67 = True
        for m4x68, m4i69 in enumerate(osm.operation.instr.dst_regs or ()):
            m4t70 = m4alloc_20(osm, m4i69, txn)
            if m4t70 is None:
                osm.blocked_on = (mgr_10, m4i69)
                m4ok67 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m4x68), m4t70))
            txn._granted_ids.add(id(m4t70))
        if not m4ok67:
            break
        r5t71 = buffer.get('fq')
        if r5t71 is not None:
            r5m72 = r5t71.manager
            if not r5m72.release(osm, r5t71, txn):
                osm.blocked_on = (r5m72, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r5t71, None, 'fq'))
        txn.commit()
        osm.current = dst_28
        osm.last_edge = edge_73
        osm.n_transitions += 1
        action_74(osm)
        return edge_73
    while True:
        if osm.operation.instr.unit != 'fpu':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v75 = osm.operation.instr.src_regs
        if i1v75 is not None:
            if not isinstance(i1v75, (list, tuple)):
                if not i1inq_9(osm, i1v75, txn):
                    osm.blocked_on = (mgr_10, i1v75)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v75))
                mgr_10.n_inquiries += 1
            else:
                i1ok76 = True
                for i1s77 in i1v75:
                    if not i1inq_9(osm, i1s77, txn):
                        osm.blocked_on = (mgr_10, i1s77)
                        i1ok76 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s77))
                    mgr_10.n_inquiries += 1
                if not i1ok76:
                    break
        a2t80 = a2alloc_78(osm, None, txn)
        if a2t80 is None:
            osm.blocked_on = (mgr_79, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t80))
        txn._granted_ids.add(id(a2t80))
        a3t81 = a3alloc_17(osm, None, txn)
        if a3t81 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a3t81))
        txn._granted_ids.add(id(a3t81))
        m4ok82 = True
        for m4x83, m4i84 in enumerate(osm.operation.instr.dst_regs or ()):
            m4t85 = m4alloc_20(osm, m4i84, txn)
            if m4t85 is None:
                osm.blocked_on = (mgr_10, m4i84)
                m4ok82 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m4x83), m4t85))
            txn._granted_ids.add(id(m4t85))
        if not m4ok82:
            break
        r5t86 = buffer.get('fq')
        if r5t86 is not None:
            r5m87 = r5t86.manager
            if not r5m87.release(osm, r5t86, txn):
                osm.blocked_on = (r5m87, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r5t86, None, 'fq'))
        txn.commit()
        osm.current = dst_28
        osm.last_edge = edge_88
        osm.n_transitions += 1
        action_89(osm)
        return edge_88
    while True:
        if osm.operation.instr.unit != 'bpu':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v90 = osm.operation.instr.src_regs
        if i1v90 is not None:
            if not isinstance(i1v90, (list, tuple)):
                if not i1inq_9(osm, i1v90, txn):
                    osm.blocked_on = (mgr_10, i1v90)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v90))
                mgr_10.n_inquiries += 1
            else:
                i1ok91 = True
                for i1s92 in i1v90:
                    if not i1inq_9(osm, i1s92, txn):
                        osm.blocked_on = (mgr_10, i1s92)
                        i1ok91 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s92))
                    mgr_10.n_inquiries += 1
                if not i1ok91:
                    break
        a2t95 = a2alloc_93(osm, None, txn)
        if a2t95 is None:
            osm.blocked_on = (mgr_94, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t95))
        txn._granted_ids.add(id(a2t95))
        a3t96 = a3alloc_17(osm, None, txn)
        if a3t96 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a3t96))
        txn._granted_ids.add(id(a3t96))
        m4ok97 = True
        for m4x98, m4i99 in enumerate(osm.operation.instr.dst_regs or ()):
            m4t100 = m4alloc_20(osm, m4i99, txn)
            if m4t100 is None:
                osm.blocked_on = (mgr_10, m4i99)
                m4ok97 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m4x98), m4t100))
            txn._granted_ids.add(id(m4t100))
        if not m4ok97:
            break
        r5t101 = buffer.get('fq')
        if r5t101 is not None:
            r5m102 = r5t101.manager
            if not r5m102.release(osm, r5t101, txn):
                osm.blocked_on = (r5m102, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r5t101, None, 'fq'))
        txn.commit()
        osm.current = dst_28
        osm.last_edge = edge_103
        osm.n_transitions += 1
        action_104(osm)
        return edge_103
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        if txn.dirty:
            txn.reset(osm)
        i1v105 = osm.operation.instr.src_regs
        if i1v105 is not None:
            if not isinstance(i1v105, (list, tuple)):
                if not i1inq_9(osm, i1v105, txn):
                    osm.blocked_on = (mgr_10, i1v105)
                    break
                txn.dirty = True
                txn.inquiries.append((mgr_10, i1v105))
                mgr_10.n_inquiries += 1
            else:
                i1ok106 = True
                for i1s107 in i1v105:
                    if not i1inq_9(osm, i1s107, txn):
                        osm.blocked_on = (mgr_10, i1s107)
                        i1ok106 = False
                        break
                    txn.dirty = True
                    txn.inquiries.append((mgr_10, i1s107))
                    mgr_10.n_inquiries += 1
                if not i1ok106:
                    break
        a2t108 = a2alloc_14(osm, None, txn)
        if a2t108 is None:
            osm.blocked_on = (mgr_15, None)
            break
        txn.dirty = True
        txn.grants.append(('unit', a2t108))
        txn._granted_ids.add(id(a2t108))
        a3t109 = a3alloc_17(osm, None, txn)
        if a3t109 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a3t109))
        txn._granted_ids.add(id(a3t109))
        m4ok110 = True
        for m4x111, m4i112 in enumerate(osm.operation.instr.dst_regs or ()):
            m4t113 = m4alloc_20(osm, m4i112, txn)
            if m4t113 is None:
                osm.blocked_on = (mgr_10, m4i112)
                m4ok110 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m4x111), m4t113))
            txn._granted_ids.add(id(m4t113))
        if not m4ok110:
            break
        r5t114 = buffer.get('fq')
        if r5t114 is not None:
            r5m115 = r5t114.manager
            if not r5m115.release(osm, r5t114, txn):
                osm.blocked_on = (r5m115, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r5t114, None, 'fq'))
        txn.commit()
        osm.current = dst_28
        osm.last_edge = edge_116
        osm.n_transitions += 1
        action_117(osm)
        return edge_116
    while True:
        if osm.operation.instr.unit != 'iu1':
            break
        if txn.dirty:
            txn.reset(osm)
        a1t120 = a1alloc_118(osm, None, txn)
        if a1t120 is None:
            osm.blocked_on = (mgr_119, None)
            break
        txn.dirty = True
        txn.grants.append(('rs', a1t120))
        txn._granted_ids.add(id(a1t120))
        a2t121 = a3alloc_17(osm, None, txn)
        if a2t121 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a2t121))
        txn._granted_ids.add(id(a2t121))
        m3ok122 = True
        for m3x123, m3i124 in enumerate(osm.operation.instr.dst_regs or ()):
            m3t125 = m4alloc_20(osm, m3i124, txn)
            if m3t125 is None:
                osm.blocked_on = (mgr_10, m3i124)
                m3ok122 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m3x123), m3t125))
            txn._granted_ids.add(id(m3t125))
        if not m3ok122:
            break
        r4t126 = buffer.get('fq')
        if r4t126 is not None:
            r4m127 = r4t126.manager
            if not r4m127.release(osm, r4t126, txn):
                osm.blocked_on = (r4m127, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r4t126, None, 'fq'))
        txn.commit()
        osm.current = dst_129
        osm.last_edge = edge_128
        osm.n_transitions += 1
        action_130(osm)
        return edge_128
    while True:
        if osm.operation.instr.unit != 'iu2':
            break
        if txn.dirty:
            txn.reset(osm)
        a1t133 = a1alloc_131(osm, None, txn)
        if a1t133 is None:
            osm.blocked_on = (mgr_132, None)
            break
        txn.dirty = True
        txn.grants.append(('rs', a1t133))
        txn._granted_ids.add(id(a1t133))
        a2t134 = a3alloc_17(osm, None, txn)
        if a2t134 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a2t134))
        txn._granted_ids.add(id(a2t134))
        m3ok135 = True
        for m3x136, m3i137 in enumerate(osm.operation.instr.dst_regs or ()):
            m3t138 = m4alloc_20(osm, m3i137, txn)
            if m3t138 is None:
                osm.blocked_on = (mgr_10, m3i137)
                m3ok135 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m3x136), m3t138))
            txn._granted_ids.add(id(m3t138))
        if not m3ok135:
            break
        r4t139 = buffer.get('fq')
        if r4t139 is not None:
            r4m140 = r4t139.manager
            if not r4m140.release(osm, r4t139, txn):
                osm.blocked_on = (r4m140, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r4t139, None, 'fq'))
        txn.commit()
        osm.current = dst_129
        osm.last_edge = edge_141
        osm.n_transitions += 1
        action_142(osm)
        return edge_141
    while True:
        if osm.operation.instr.unit != 'sru':
            break
        if txn.dirty:
            txn.reset(osm)
        a1t145 = a1alloc_143(osm, None, txn)
        if a1t145 is None:
            osm.blocked_on = (mgr_144, None)
            break
        txn.dirty = True
        txn.grants.append(('rs', a1t145))
        txn._granted_ids.add(id(a1t145))
        a2t146 = a3alloc_17(osm, None, txn)
        if a2t146 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a2t146))
        txn._granted_ids.add(id(a2t146))
        m3ok147 = True
        for m3x148, m3i149 in enumerate(osm.operation.instr.dst_regs or ()):
            m3t150 = m4alloc_20(osm, m3i149, txn)
            if m3t150 is None:
                osm.blocked_on = (mgr_10, m3i149)
                m3ok147 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m3x148), m3t150))
            txn._granted_ids.add(id(m3t150))
        if not m3ok147:
            break
        r4t151 = buffer.get('fq')
        if r4t151 is not None:
            r4m152 = r4t151.manager
            if not r4m152.release(osm, r4t151, txn):
                osm.blocked_on = (r4m152, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r4t151, None, 'fq'))
        txn.commit()
        osm.current = dst_129
        osm.last_edge = edge_153
        osm.n_transitions += 1
        action_154(osm)
        return edge_153
    while True:
        if osm.operation.instr.unit != 'lsu':
            break
        if txn.dirty:
            txn.reset(osm)
        a1t157 = a1alloc_155(osm, None, txn)
        if a1t157 is None:
            osm.blocked_on = (mgr_156, None)
            break
        txn.dirty = True
        txn.grants.append(('rs', a1t157))
        txn._granted_ids.add(id(a1t157))
        a2t158 = a3alloc_17(osm, None, txn)
        if a2t158 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a2t158))
        txn._granted_ids.add(id(a2t158))
        m3ok159 = True
        for m3x160, m3i161 in enumerate(osm.operation.instr.dst_regs or ()):
            m3t162 = m4alloc_20(osm, m3i161, txn)
            if m3t162 is None:
                osm.blocked_on = (mgr_10, m3i161)
                m3ok159 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m3x160), m3t162))
            txn._granted_ids.add(id(m3t162))
        if not m3ok159:
            break
        r4t163 = buffer.get('fq')
        if r4t163 is not None:
            r4m164 = r4t163.manager
            if not r4m164.release(osm, r4t163, txn):
                osm.blocked_on = (r4m164, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r4t163, None, 'fq'))
        txn.commit()
        osm.current = dst_129
        osm.last_edge = edge_165
        osm.n_transitions += 1
        action_166(osm)
        return edge_165
    while True:
        if osm.operation.instr.unit != 'fpu':
            break
        if txn.dirty:
            txn.reset(osm)
        a1t169 = a1alloc_167(osm, None, txn)
        if a1t169 is None:
            osm.blocked_on = (mgr_168, None)
            break
        txn.dirty = True
        txn.grants.append(('rs', a1t169))
        txn._granted_ids.add(id(a1t169))
        a2t170 = a3alloc_17(osm, None, txn)
        if a2t170 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a2t170))
        txn._granted_ids.add(id(a2t170))
        m3ok171 = True
        for m3x172, m3i173 in enumerate(osm.operation.instr.dst_regs or ()):
            m3t174 = m4alloc_20(osm, m3i173, txn)
            if m3t174 is None:
                osm.blocked_on = (mgr_10, m3i173)
                m3ok171 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m3x172), m3t174))
            txn._granted_ids.add(id(m3t174))
        if not m3ok171:
            break
        r4t175 = buffer.get('fq')
        if r4t175 is not None:
            r4m176 = r4t175.manager
            if not r4m176.release(osm, r4t175, txn):
                osm.blocked_on = (r4m176, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r4t175, None, 'fq'))
        txn.commit()
        osm.current = dst_129
        osm.last_edge = edge_177
        osm.n_transitions += 1
        action_178(osm)
        return edge_177
    while True:
        if osm.operation.instr.unit != 'bpu':
            break
        if txn.dirty:
            txn.reset(osm)
        a1t181 = a1alloc_179(osm, None, txn)
        if a1t181 is None:
            osm.blocked_on = (mgr_180, None)
            break
        txn.dirty = True
        txn.grants.append(('rs', a1t181))
        txn._granted_ids.add(id(a1t181))
        a2t182 = a3alloc_17(osm, None, txn)
        if a2t182 is None:
            osm.blocked_on = (mgr_18, None)
            break
        txn.dirty = True
        txn.grants.append(('cq', a2t182))
        txn._granted_ids.add(id(a2t182))
        m3ok183 = True
        for m3x184, m3i185 in enumerate(osm.operation.instr.dst_regs or ()):
            m3t186 = m4alloc_20(osm, m3i185, txn)
            if m3t186 is None:
                osm.blocked_on = (mgr_10, m3i185)
                m3ok183 = False
                break
            txn.dirty = True
            txn.grants.append(('ren' + str(m3x184), m3t186))
            txn._granted_ids.add(id(m3t186))
        if not m3ok183:
            break
        r4t187 = buffer.get('fq')
        if r4t187 is not None:
            r4m188 = r4t187.manager
            if not r4m188.release(osm, r4t187, txn):
                osm.blocked_on = (r4m188, 'fq')
                break
            txn.dirty = True
            txn.releases.append((r4t187, None, 'fq'))
        txn.commit()
        osm.current = dst_129
        osm.last_edge = edge_189
        osm.n_transitions += 1
        action_190(osm)
        return edge_189
    return None
