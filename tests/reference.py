"""Reference implementations shared by the tests.

`ref_leg_bracket` is the leg commutator written out once per pair in
coefficient arithmetic alone (`rename`, `*`, `+`, `is_zero`), so it runs on
RatFun tensors and on cleared (Poly) tensors alike and shares no code with
`tensors.leg_bracket`.
"""

from yangbaxter.tensors import Tensor3

_RENAMES = {
    "12^13": ({"u": "u1", "v": "u2"}, {"u": "u1", "v": "u3"}),
    "12^23": ({"u": "u1", "v": "u2"}, {"u": "u2", "v": "u3"}),
    "13^23": ({"u": "u1", "v": "u3"}, {"u": "u2", "v": "u3"}),
}


def ref_leg_bracket(r, s, pair):
    table = r.table
    ren_r, ren_s = _RENAMES[pair]
    out = {}

    def add(key, val):
        cur = out.get(key)
        val = val if cur is None else cur + val
        if val.is_zero():
            out.pop(key, None)
        else:
            out[key] = val

    for (a, b), f in r.entries.items():
        f = f.rename(ren_r)
        for (c, d), g in s.entries.items():
            g = g.rename(ren_s)
            if pair == "12^13":
                for k, sc in table.structure.get((a, c), ()):
                    add((k, b, d), f * g * sc)
            elif pair == "12^23":
                for k, sc in table.structure.get((b, c), ()):
                    add((a, k, d), f * g * sc)
            else:
                for k, sc in table.structure.get((b, d), ()):
                    add((a, c, k), f * g * sc)
    return Tensor3(table, out)

