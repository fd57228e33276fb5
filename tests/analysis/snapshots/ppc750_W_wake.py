def _wake(osm, doomed_1=doomed_1, mgr_2=mgr_2, cls_5=cls_5):
    if not id(osm) not in doomed_1:
        return True
    _wt3 = osm.token_buffer.get('cq')
    if _wt3 is None:
        return True
    _wm4 = _wt3.manager
    if type(_wm4) is not cls_5 or not (_wt3.holder is osm and (_wm4._hold_release or _wm4._released_this_cycle >= _wm4.width or (not _wm4._order) or (_wm4._order[0] is not osm))):
        return True
    osm.blocked_on = (_wm4, 'cq')
    osm._asleep = True
    return False
